"""Acceptance suite: one test per criterion, one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines;
every tolerance is pinned here, nothing is calibrated elsewhere.
"""

import random
import time

import numpy as np
import pytest

from pda_kit import analytics, arith, attacks, netsim, pda
from pda_kit.bus import Bus
from pda_kit.errors import SlotReused
from pda_kit.rng import Rng


def report(num: int, name: str, detail: str = "") -> None:
    suffix = f"  [{detail}]" if detail else ""
    print(f"\nACCEPTANCE {num} {name}: PASS{suffix}")


# ---------------------------------------------------------------------------
# 1. arithmetic-protocol correctness
# ---------------------------------------------------------------------------

def test_criterion_1_arith_correctness():
    t0 = time.perf_counter()
    rnd = random.Random(101)
    vectors = 0
    for kappa in (64, 128):
        for n in range(4, 9):
            system, _ = netsim.build_arith_system(
                kappa=kappa, n=n, n_min=3, seed=f"c1:{kappa}:{n}"
            )
            params = system.params
            ids = sorted(system.enc_keys)
            for size in range(3, n + 1):
                for op in ("add", "mul"):
                    for _ in range(3):
                        group = tuple(sorted(rnd.sample(ids, size)))
                        xs = {i: rnd.randrange(params.p) for i in group}
                        if op == "add":
                            expected = sum(xs.values()) % params.p
                        else:
                            expected = 1
                            for v in xs.values():
                                expected = expected * v % params.p
                        value, _ = netsim.run_arith_group_aggregation(system, group, xs, op)
                        assert value == expected, (
                            f"exact mismatch at kappa={kappa} n={n} size={size} op={op}"
                        )
                        vectors += 1
    elapsed = time.perf_counter() - t0
    assert vectors >= 200
    assert elapsed < 60.0
    report(1, "arith sum/product exact", f"{vectors} vectors, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. framework end-to-end
# ---------------------------------------------------------------------------

def _random_query(rnd, params, ids, window_start):
    size = rnd.randint(params.theta_min, len(ids))
    group = tuple(sorted(rnd.sample(ids, size)))
    m = rnd.randint(1, 6)
    exponents = {}
    for i in group:
        per_term = {}
        for k in range(m):
            e = rnd.randint(0, 3)
            if e:
                per_term[k] = e
        if per_term:
            exponents[i] = per_term
    coeffs = tuple(
        rnd.choice((1, -1)) * rnd.randrange(1, params.N // 4) for _ in range(m)
    )
    query = pda.PdaQuery(
        coeffs=coeffs,
        exponents=exponents,
        participants=group,
        window=pda.Window(window_start, m),
    )
    data = {i: [rnd.randrange(params.N) for _ in range(m)] for i in group}
    return query, data


def test_criterion_2_pda_end_to_end():
    t0 = time.perf_counter()
    rnd = random.Random(202)
    instances = 0
    for kappa in (32, 64):
        for n in range(4, 9):
            system, _ = netsim.build_pda_system(
                kappa=kappa, n=n, theta_min=3, seed=f"c2:{kappa}:{n}", m_max=6
            )
            params = system.params
            ids = sorted(system.enc_keys)
            start = 0
            for _ in range(10):
                query, data = _random_query(rnd, params, ids, start)
                start += query.m
                value, _ = netsim.run_pda_aggregation(
                    system, query, data, seed=f"c2run:{instances}"
                )
                oracle = pda.evaluate_query(query, data, params.N)
                assert value == oracle, (
                    f"exact mismatch at kappa={kappa} n={n} m={query.m}"
                )
                instances += 1
    elapsed = time.perf_counter() - t0
    assert instances == 100
    assert elapsed < 120.0
    report(2, "framework aggregate exact", f"{instances} instances, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. mask-cancellation invariants
# ---------------------------------------------------------------------------

def test_criterion_3_mask_cancellation():
    rnd = random.Random(303)
    checked = 0
    for seed in ("c3:a", "c3:b"):
        system, _ = netsim.build_arith_system(kappa=32, n=7, n_min=3, seed=seed)
        params = system.params
        m = params.key_modulus
        ids = sorted(system.enc_keys)
        for _ in range(50):
            size = rnd.randint(3, len(ids))
            group = sorted(rnd.sample(ids, size))
            weights = arith.lagrange_weights(group)
            total = sum(system.enc_keys[i].shares[size] * weights[i] for i in group)
            assert total % m == 0
            checked += 1
    for seed in ("c3:c", "c3:d"):
        system, _ = netsim.build_pda_system(
            kappa=16, n=7, theta_min=3, seed=seed, m_max=4
        )
        params = system.params
        ids = sorted(system.enc_keys)
        for _ in range(50):
            size = rnd.randint(3, len(ids))
            group = sorted(rnd.sample(ids, size))
            t = rnd.randrange(1 << 30)
            ht = params.hash_slot(t)
            prod = 1
            for i in group:
                exp = pda.mask_exponent(params, system.enc_keys[i], group)
                prod = prod * pow(ht, exp, params.N) % params.N
            assert prod == 1
            checked += 1
    report(3, "mask sums vanish exactly", f"{checked} group checks over 4 key sets")


# ---------------------------------------------------------------------------
# 4. storage linearity
# ---------------------------------------------------------------------------

def _relative_linear_residual(sizes, volumes):
    a = np.vstack([sizes, np.ones(len(sizes))]).T
    coef, *_ = np.linalg.lstsq(a, np.array(volumes, dtype=float), rcond=None)
    predicted = a @ coef
    return float(np.max(np.abs(predicted - volumes) / volumes))


def test_criterion_4_storage_linearity(tmp_path):
    import json

    sizes = [8, 16, 32, 64]
    pda_bytes = []
    arith_bytes = []
    for n in sizes:
        system, _ = netsim.build_pda_system(
            kappa=16, n=n, theta_min=3, seed=f"c4p:{n}", m_max=4
        )
        path = tmp_path / f"pda_{n}.json"
        path.write_text(json.dumps(system.enc_keys[1].to_json(), sort_keys=True))
        pda_bytes.append(path.stat().st_size)

        asys, _ = netsim.build_arith_system(kappa=16, n=n, n_min=3, seed=f"c4a:{n}")
        apath = tmp_path / f"arith_{n}.json"
        apath.write_text(json.dumps(asys.enc_keys[1].to_json(), sort_keys=True))
        arith_bytes.append(apath.stat().st_size)

    res_pda = _relative_linear_residual(sizes, pda_bytes)
    res_arith = _relative_linear_residual(sizes, arith_bytes)
    assert res_pda < 0.05, f"framework key files not linear: {res_pda:.3%}"
    assert res_arith < 0.05, f"arith key files not linear: {res_arith:.3%}"
    report(
        4,
        "key storage linear in n",
        f"residuals framework {res_pda:.2%}, arith {res_arith:.2%} over n={sizes}",
    )


# ---------------------------------------------------------------------------
# 5. communication accounting
# ---------------------------------------------------------------------------

def test_criterion_5_communication():
    # round counts
    asys, _ = netsim.build_arith_system(kappa=16, n=5, n_min=3, seed="c5:rounds")
    values = {i: i + 1 for i in asys.ids}
    _, ares = netsim.run_arith_group_aggregation(asys, asys.ids, values, "add")
    assert ares.round_count == 1

    psys, _ = netsim.build_pda_system(kappa=16, n=5, theta_min=3, seed="c5:pda", m_max=4)
    ids = tuple(sorted(psys.enc_keys))
    query = pda.PdaQuery(
        coeffs=(1, 1),
        exponents={ids[2]: {0: 1}},
        participants=ids,
        window=pda.Window(0, 2),
    )
    _, pres = netsim.run_pda_aggregation(psys, query, {i: [1, 1] for i in ids}, seed=2)
    assert pres.round_count - 1 == 2  # two broadcast rounds after the declaration

    # keygen traffic growth: the system-level keygen runs over the n real
    # users plus the authority's virtual participant
    sizes = [4, 8, 16, 32]
    volumes = []
    pda_volumes = []
    for n in sizes:
        _, result = netsim.build_arith_system(
            kappa=16, n=n, n_min=3, seed=f"c5k:{n}", with_authority=True
        )
        volumes.append(sum(v for (p, _), v in result.bus.sent.items() if p == 1))
        _, presult = netsim.build_pda_system(
            kappa=16, n=n, theta_min=3, seed=f"c5p:{n}", m_max=4
        )
        pda_volumes.append(sum(v for (p, _), v in presult.bus.sent.items() if p == 1))
    exponent = np.polyfit(np.log(sizes), np.log(volumes), 1)[0]
    assert 1.8 <= exponent <= 2.2, f"fitted exponent {exponent:.3f} outside [1.8, 2.2]"
    informational = np.polyfit(np.log(sizes), np.log(pda_volumes), 1)[0]
    report(
        5,
        "1-round arith / 2-round framework; keygen traffic ~ n^2",
        f"fitted exponent {exponent:.2f} (framework keygen {informational:.2f} informational)",
    )


# ---------------------------------------------------------------------------
# 6. collusion threshold
# ---------------------------------------------------------------------------

def test_criterion_6_collusion_threshold():
    n = 9
    rnd = random.Random(606)
    recovered_checks = 0
    undetermined_checks = 0
    for d in range(2, 7):
        params = pda.setup(16, n, 3, Rng(f"c6:{d}"))
        for trial in range(50):
            bus = Bus(range(1, n + 1))
            crng = Rng(f"c6:{d}:{trial}")
            y = pda.ring_share(bus, params, crng.fork("ring"))
            keys = pda.keygen(bus, params, crng.fork("q"), y, degrees=[d])
            ids = sorted(keys)
            victim = ids[rnd.randrange(len(ids))]
            pool = [i for i in ids if i != victim]
            truth = keys[victim].evaluations[d]
            for s in range(1, 8):
                members = rnd.sample(pool, s)
                coalition = {i: keys[i].evaluations[d] for i in members}
                out = attacks.collusion_attack(params.N_tilde, coalition, d, victim)
                if s >= d:
                    assert out.status == "recovered", f"d={d} s={s} failed to recover"
                    assert out.recovered == truth, f"d={d} s={s} recovered wrong key"
                    recovered_checks += 1
                else:
                    assert out.status == "undetermined", f"d={d} s={s} leaked"
                    w1, w2 = out.witnesses
                    for i in members:
                        assert _poly(w1, i, params.N_tilde) == coalition[i] % params.N_tilde
                        assert _poly(w2, i, params.N_tilde) == coalition[i] % params.N_tilde
                    assert _poly(w1, victim, params.N_tilde) != _poly(
                        w2, victim, params.N_tilde
                    ), "witnesses agree at the victim"
                    undetermined_checks += 1
    report(
        6,
        "coalition recovers iff size >= degree",
        f"{recovered_checks} recoveries, {undetermined_checks} two-witness cases",
    )


def _poly(coeffs, x, modulus):
    acc = 0
    for c in reversed(coeffs):
        acc = (acc + c) * x % modulus
    return acc


# ---------------------------------------------------------------------------
# 7. rushing attack
# ---------------------------------------------------------------------------

def test_criterion_7_rushing():
    params = pda.setup(16, 5, 3, Rng("c7"))
    base_hits = 0
    hardened_misses = 0
    for seed in range(100):
        base = attacks.rushing_attack_demo(params, victim=3, seed=seed)
        if base.matched:
            base_hits += 1
        hardened = attacks.rushing_attack_demo(params, victim=3, seed=seed, hardened_k=1)
        if not hardened.matched:
            hardened_misses += 1
    assert base_hits == 100, f"base ring prediction matched only {base_hits}/100"
    assert hardened_misses == 100, f"hardened ring leaked on {100 - hardened_misses} seeds"
    report(7, "rushing: base broken, hardened safe", "100/100 seeds each way")


# ---------------------------------------------------------------------------
# 8. analytics fidelity
# ---------------------------------------------------------------------------

def test_criterion_8_regression_fidelity():
    sklearn = pytest.importorskip("sklearn.datasets")
    t0 = time.perf_counter()
    digits = sklearn.load_digits()
    x_all = digits.data[:200]  # 200-row subsample, integer pixel intensities
    y_all = digits.target[:200].astype(float)
    variances = x_all.var(axis=0)
    cols = sorted(int(c) for c in np.argsort(variances)[::-1][:8])
    names = [f"px{c}" for c in cols]
    rows = {
        i + 1: {**{names[j]: float(x_all[i, c]) for j, c in enumerate(cols)},
                "y": float(y_all[i])}
        for i in range(200)
    }
    ids = sorted(rows)

    frac_bits = 20
    system, _ = netsim.build_pda_system(
        kappa=48, n=200, theta_min=3, seed="c8", degrees=[199], m_max=256
    )
    plan = analytics.plan_linear_regression(ids, names, frac_bits=frac_bits)
    out = analytics.run_plan(system, plan, rows, seed="c8:run")

    design = np.hstack([np.ones((200, 1)), x_all[:, cols]])
    oracle, *_ = np.linalg.lstsq(design, y_all, rcond=None)
    got = np.array([out["intercept"], *out["coefficients"]])
    worst = float(np.max(np.abs(got - oracle)))
    tolerance = 2.0 ** (-frac_bits + 3)
    elapsed = time.perf_counter() - t0
    assert worst < tolerance, f"coefficient error {worst:.3e} >= {tolerance:.3e}"
    report(
        8,
        "regression matches plaintext least squares",
        f"max coef err {worst:.2e} < 2^-17, {len(plan.steps)} queries, {elapsed:.0f}s",
    )


def test_criterion_8_shape_on_seeded_data():
    # criterion 8's shape without sklearn: 200 users, 8 integer features in
    # 0..16 and a label in 0..9 that depends on two of them
    t0 = time.perf_counter()
    rnd = random.Random(8008)
    names = [f"x{k}" for k in range(8)]
    x_all = np.array([[rnd.randint(0, 16) for _ in names] for _ in range(200)], dtype=float)
    y_all = np.array([min(9, int(x[0] + x[3]) // 4 + rnd.randint(0, 1)) for x in x_all], dtype=float)
    rows = {
        i + 1: {**{name: x_all[i, k] for k, name in enumerate(names)}, "y": y_all[i]}
        for i in range(200)
    }
    ids = sorted(rows)

    frac_bits = 20
    system, _ = netsim.build_pda_system(
        kappa=48, n=200, theta_min=3, seed="c8:seeded", degrees=[199], m_max=256
    )
    plan = analytics.plan_linear_regression(ids, names, frac_bits=frac_bits)
    out = analytics.run_plan(system, plan, rows, seed="c8:seeded:run")

    design = np.hstack([np.ones((200, 1)), x_all])
    oracle, *_ = np.linalg.lstsq(design, y_all, rcond=None)
    got = np.array([out["intercept"], *out["coefficients"]])
    worst = float(np.max(np.abs(got - oracle)))
    tolerance = 2.0 ** (-frac_bits + 3)
    elapsed = time.perf_counter() - t0
    assert worst < tolerance, f"coefficient error {worst:.3e} >= {tolerance:.3e}"
    report(
        8,
        "regression on seeded data matches plaintext least squares",
        f"max coef err {worst:.2e} < 2^-17, {len(plan.steps)} queries, {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 9. window discipline
# ---------------------------------------------------------------------------

def test_criterion_9_window_discipline(monkeypatch):
    system, _ = netsim.build_pda_system(
        kappa=16, n=5, theta_min=3, seed="c9", m_max=8
    )
    ids = tuple(sorted(system.enc_keys))

    def query(start, length):
        return pda.PdaQuery(
            coeffs=(1,) * length,
            exponents={ids[2]: {0: 1}},
            participants=ids,
            window=pda.Window(start, length),
        )

    def data(length):
        return {i: [1] * length for i in ids}

    registry = pda.SlotRegistry()
    netsim.run_pda_aggregation(
        system, query(100, 4), data(4), seed=1, registry=registry
    )

    overlaps = [
        (100, 4),  # identical
        (101, 2),  # nested
        (98, 3),   # prefix overlap
        (103, 4),  # suffix overlap
        (97, 8),   # superset
        (103, 1),  # single boundary slot inside
    ]
    real_run, ceremonies = netsim.run_ceremony, []

    def recording(*args, **kwargs):
        ceremonies.append(args)
        return real_run(*args, **kwargs)

    monkeypatch.setattr(netsim, "run_ceremony", recording)
    rejected = 0
    for start, length in overlaps:
        with pytest.raises(SlotReused):
            netsim.run_pda_aggregation(
                system,
                query(start, length),
                data(length),
                seed=2,
                registry=registry,
            )
        assert ceremonies == [], f"a ceremony ran for window ({start},{length})"
        rejected += 1

    # adjacent windows on both sides are fine
    for start, length in [(96, 4), (104, 2)]:
        netsim.run_pda_aggregation(
            system, query(start, length), data(length), seed=3, registry=registry
        )
    assert len(ceremonies) == 2  # the recorder sees every ceremony that does run
    report(
        9,
        "overlapping windows rejected before any message",
        f"{rejected} crafted overlaps vetoed, disjoint neighbours accepted",
    )
