import json
import multiprocessing
import shlex
import shutil
from pathlib import Path

import pytest

from pda_kit import cli, netsim, paillier
from pda_kit.rng import Rng

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


def test_gen_params_deterministic(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for out in (a, b):
        assert run_cli(
            "gen-params", "--scheme", "pda", "--kappa", "12", "--n", "4",
            "--seed", "9", "--out", out,
        ) == 0
    assert a.read_bytes() == b.read_bytes()
    capsys.readouterr()


def test_gen_params_arith_scheme(tmp_path, capsys):
    out = tmp_path / "arith.json"
    assert run_cli(
        "gen-params", "--scheme", "arith", "--kappa", "12", "--n", "4",
        "--n-min", "3", "--seed", "9", "--out", out,
    ) == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"p", "g", "n", "n_min"}
    capsys.readouterr()


def test_seed_required(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv(cli.SEED_ENV, raising=False)
    code = run_cli(
        "gen-params", "--scheme", "pda", "--kappa", "12", "--n", "4",
        "--out", tmp_path / "x.json",
    )
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "seed-required"


def test_seed_env_fallback(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(cli.SEED_ENV, "9")
    out = tmp_path / "env.json"
    assert run_cli(
        "gen-params", "--scheme", "pda", "--kappa", "12", "--n", "4", "--out", out
    ) == 0
    explicit = tmp_path / "flag.json"
    assert run_cli(
        "gen-params", "--scheme", "pda", "--kappa", "12", "--n", "4",
        "--seed", "9", "--out", explicit,
    ) == 0
    assert out.read_bytes() == explicit.read_bytes()
    capsys.readouterr()


@pytest.fixture(scope="module")
def keyring(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-system")
    params = root / "params.json"
    keys = root / "keys"
    assert cli.main([
        "gen-params", "--scheme", "pda", "--kappa", "16", "--n", "3",
        "--seed", "11", "--out", str(params),
    ]) == 0
    assert cli.main([
        "keygen", "--params", str(params), "--keys", str(keys),
        "--seed", "12", "--m-max", "8",
    ]) == 0
    return params, keys


@pytest.mark.parametrize(
    "scheme, flags", [("pda", ["--hardened-k", "1"]), ("arith", ["--authority"])]
)
def test_keygen_runs_the_library_keygen(tmp_path, capsys, scheme, flags):
    kappa, n, min_group, seed = 16, 5, 3, 21
    params, keys, transcript = tmp_path / "params.json", tmp_path / "keys", tmp_path / "t.jsonl"
    assert run_cli(
        "gen-params", "--scheme", scheme, "--kappa", kappa, "--n", n,
        "--n-min", min_group, "--seed", seed, "--out", params,
    ) == 0
    assert run_cli(
        "keygen", "--params", params, "--keys", keys, "--seed", seed,
        "--transcript", transcript, *flags,
    ) == 0
    capsys.readouterr()
    if scheme == "pda":
        system, result = netsim.build_pda_system(kappa, n, min_group, seed, hardened_k=1)
        agg = json.loads((keys / "aggregator.json").read_text())
        assert agg == paillier.to_json(system.agg_keys)
    else:
        system, result = netsim.build_arith_system(
            kappa, n, min_group, seed, with_authority=True
        )
    written = {p.name: json.loads(p.read_text()) for p in keys.glob("user_*.json")}
    assert written == {f"user_{i}.json": k.to_json() for i, k in system.enc_keys.items()}
    assert transcript.read_text() == result.transcript_jsonl()


@pytest.mark.parametrize("flags", [["--hardened-k", "2"], ["--m-max", "8"]])
def test_keygen_on_arith_params_refuses_a_framework_flag(tmp_path, capsys, flags):
    params, keys = tmp_path / "params.json", tmp_path / "keys"
    assert run_cli(
        "gen-params", "--scheme", "arith", "--kappa", 16, "--n", 5, "--seed", 22, "--out", params,
    ) == 0
    capsys.readouterr()
    code = run_cli("keygen", "--params", params, "--keys", keys, "--seed", 22, *flags)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "bad-args"
    assert flags[0] in err["detail"]
    assert not keys.exists()


def test_keygen_writes_keyfiles(keyring, capsys):
    params, keys = keyring
    files = sorted(p.name for p in keys.glob("*.json"))
    assert files == ["aggregator.json", "user_1.json", "user_2.json", "user_3.json"]
    assert (keys / "registry.jsonl").exists()
    capsys.readouterr()


def test_aggregate_toy_fixture(keyring, capsys):
    params, keys = keyring
    code = run_cli(
        "aggregate", "--params", params, "--keys", keys,
        "--query", FIXTURES / "toy_query.json",
        "--data", FIXTURES / "toy_data.csv",
        "--seed", "13",
    )
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    # f = x1*x2 + 2*x3 = 5*7 + 2*3 = 41
    assert out["value_int"] == "41"
    assert out["rounds_after_declaration"] == 2


def test_aggregate_writes_transcript(keyring, tmp_path, capsys):
    params, keys = keyring
    transcript = tmp_path / "t.jsonl"
    query = tmp_path / "q.json"
    query.write_text(
        json.dumps(
            {
                "coeffs": [1],
                "exponents": {"1": {"0": 1}},
                "participants": [1, 2, 3],
                "window": {"start": 50, "len": 1},
            }
        )
    )
    code = run_cli(
        "aggregate", "--params", params, "--keys", keys,
        "--query", query, "--data", FIXTURES / "toy_data.csv",
        "--seed", "15", "--transcript", transcript,
    )
    capsys.readouterr()
    assert code == 0
    lines = [json.loads(line) for line in transcript.read_text().splitlines()]
    assert lines[0]["kind"] == "declare"
    assert {m["kind"] for m in lines} == {"declare", "encode", "encode-enc", "blinded-term"}
    for m in lines:
        assert set(m) == {"round", "from", "to", "kind", "body"}


def test_aggregate_window_reuse_fails(keyring, capsys):
    params, keys = keyring
    code = run_cli(
        "aggregate", "--params", params, "--keys", keys,
        "--query", FIXTURES / "toy_query.json",
        "--data", FIXTURES / "toy_data.csv",
        "--seed", "14",
    )
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "SlotReused"


def test_aggregate_rejects_params_with_h_outside_subgroup(keyring, tmp_path, capsys):
    params, keys = keyring
    doc = json.loads(params.read_text())
    doc["h"] = format(int(doc["h"], 16) + 1, "x")
    broken = tmp_path / "params.json"
    broken.write_text(json.dumps(doc))
    code = run_cli(
        "aggregate", "--params", broken, "--keys", keys,
        "--query", FIXTURES / "toy_query.json",
        "--data", FIXTURES / "toy_data.csv",
        "--seed", "16",
    )
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "NotInSubgroup"


@pytest.mark.parametrize(
    "csv_text",
    [
        "user,x0,x1\n1,5,1\n,7,1\n3,1,3\n",  # empty user cell
        "user,x0,x1\n1,5,1\ntwo,7,1\n3,1,3\n",  # non-integer user cell
        "user,x0,x1\n1,5,1\n2,,1\n3,1,3\n",  # empty value cell
        "user,x0,x1\n1,5,1\n2,7,1.5\n3,1,3\n",  # non-integer value cell
        "user,x0,x1\n1,5,1\n2,7\n3,1,3\n",  # short row
        "user,x0,y\n1,5,1\n2,7,1\n3,1,3\n",  # neither x1 nor x
        "user,x0,x\n1,5,1\n2,7,1\n3,1,3\n",  # x0 and x, but no x1
        "user,value\n1,5\n2,7\n3,1\n",  # neither x<k> nor x
        "user,x0,x1\n1,5,1\n1,7,1\n2,7,1\n3,1,3\n",  # repeated user
        "user,x0,x1\n1,5,1\n3,1,3\n",  # no row for user 2
    ],
)
def test_aggregate_rejects_bad_data(keyring, tmp_path, capsys, csv_text):
    params, keys = keyring
    data = tmp_path / "data.csv"
    data.write_text(csv_text)
    claimed = (keys / "registry.jsonl").read_text()
    code = run_cli(
        "aggregate", "--params", params, "--keys", keys,
        "--query", FIXTURES / "toy_query.json", "--data", data, "--seed", "17",
    )
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "bad-data"
    assert (keys / "registry.jsonl").read_text() == claimed


def test_aggregate_refuses_a_key_directory_without_user_keys(keyring, tmp_path, capsys):
    params, _ = keyring
    code = run_cli(
        "aggregate", "--params", params, "--keys", tmp_path,
        "--query", FIXTURES / "toy_query.json", "--data", FIXTURES / "toy_data.csv", "--seed", "17",
    )
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "missing-keys"


def test_aggregate_refuses_query_wider_than_aggregator_key(keyring, tmp_path, capsys):
    params, _ = keyring
    keys = tmp_path / "keys"
    assert run_cli(
        "keygen", "--params", params, "--keys", keys, "--seed", "18", "--m-max", "1",
    ) == 0
    capsys.readouterr()
    code = run_cli(
        "aggregate", "--params", params, "--keys", keys,
        "--query", FIXTURES / "toy_query.json",
        "--data", FIXTURES / "toy_data.csv",
        "--seed", "19",
    )
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "ResultOverflow"
    assert (keys / "registry.jsonl").read_text() == ""


def _toy_query_at_200(tmp_path, **change):
    """The toy query file moved to the unclaimed window at slot 200, with `change` applied."""
    doc = json.loads((FIXTURES / "toy_query.json").read_text())
    query = tmp_path / "query.json"
    query.write_text(json.dumps({**doc, "window": {"start": 200, "len": 2}, **change}))
    return query


def _aggregate_refused(keys, params, query, data, capsys, error):
    """aggregate exits 1 with `error`, prints no report and claims no window."""
    claimed = (keys / "registry.jsonl").read_bytes()
    code = run_cli(
        "aggregate", "--params", params, "--keys", keys, "--query", query, "--data", data,
        "--seed", "20",
    )
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == error
    assert (keys / "registry.jsonl").read_bytes() == claimed
    return err["detail"]


@pytest.mark.parametrize(
    "change, rows, error, detail",
    [
        ({"participants": [1, 1, 2]}, "", "DuplicateId", "repeated"),
        (
            {"participants": [1, 2, 9], "exponents": {"1": {"0": 1}, "9": {"1": 1}}},
            "9,2,2\n",
            "InvalidQuery",
            "outside 1..3",
        ),
        ({"exponents": {"1": {"0": 1}, "4": {"1": 1}}}, "4,2,2\n", "InvalidQuery", "non-member"),
        ({"exponents": {"1": {"0": 1}, "3": {"5": 1}}}, "", "InvalidQuery", "outside 0..1"),
        ({"exponents": {"1": {"0": -1}}}, "", "InvalidQuery", "negative exponent"),
        ({"window": {"start": 200, "len": 3}}, "", "InvalidQuery", "window length"),
    ],
    ids=["repeated-participant", "participant-outside-roster", "exponent-for-non-member",
         "exponent-for-term-outside-window", "negative-exponent", "window-length-not-term-count"],
)
def test_aggregate_refuses_invalid_query(keyring, tmp_path, capsys, change, rows, error, detail):
    params, keys = keyring
    copy = tmp_path / "keys"
    shutil.copytree(keys, copy)
    query, data = _toy_query_at_200(tmp_path, **change), tmp_path / "data.csv"
    data.write_text((FIXTURES / "toy_data.csv").read_text() + rows)
    assert detail in _aggregate_refused(copy, params, query, data, capsys, error)


def test_aggregate_refuses_participant_without_key_file(keyring, tmp_path, capsys):
    params, keys = keyring
    copy = tmp_path / "keys"
    shutil.copytree(keys, copy)
    (copy / "user_3.json").unlink()
    query = _toy_query_at_200(tmp_path)
    detail = _aggregate_refused(copy, params, query, FIXTURES / "toy_data.csv", capsys, "KeyMissing")
    assert "[3]" in detail


def test_aggregate_refuses_aggregator_key_with_wrong_mu(keyring, tmp_path, capsys):
    params, keys = keyring
    copy = tmp_path / "keys"
    shutil.copytree(keys, copy)
    doc = json.loads((copy / "aggregator.json").read_text())
    doc["mu"] = format(int(doc["mu"], 16) + 1, "x")
    (copy / "aggregator.json").write_text(json.dumps(doc))
    query = _toy_query_at_200(tmp_path)
    _aggregate_refused(copy, params, query, FIXTURES / "toy_data.csv", capsys, "InvalidKey")


def test_aggregate_refuses_aggregator_key_whose_lambda_does_not_split_n(
    keyring, tmp_path, capsys
):
    # mu * lambda = 1 mod n, so only the split of n by lambda catches it
    params, keys = keyring
    copy = tmp_path / "keys"
    shutil.copytree(keys, copy)
    n = paillier.keygen(64, Rng("cli:split")).n
    doc = {"n_a": format(n, "x"), "lambda": "1", "mu": "1"}
    (copy / "aggregator.json").write_text(json.dumps(doc))
    query = _toy_query_at_200(tmp_path)
    detail = _aggregate_refused(
        copy, params, query, FIXTURES / "toy_data.csv", capsys, "InvalidKey"
    )
    assert "lambda" in detail


@pytest.mark.parametrize(
    "csv_text, where",
    [
        ("x\n2\nabc\n6\n", "row 2, column 'x'"),  # non-numeric cell
        ("x\n2\n4\ninf\n", "row 3, column 'x'"),  # non-finite cell
        ("user,x\n1,2\n,4\n3,6\n", "row 2, column 'user'"),  # empty user cell
        ("user,x\n1,2\n1,4\n3,6\n", "row 2: repeated user 1"),
        ("x\n2\n4\n", "need 3 rows or more, got 2"),
        ("y\n1\n2\n3\n", "no feature column"),
        ("x\n2\n4\n6\n", "regress needs a 'y' column"),
        ("user,x,y\n2,1,3\n3,2,5\n4,3,7\n", "user IDs [4] outside 1..3"),
        ("user,x,x,y\n1,2,1,3\n2,4,2,5\n3,6,3,7\n", "header: column 'x' repeated"),
        ("x,y\n2,1\n4,2,9\n6,3\n", "row 2: more cells than the header's 2"),
        ("x,y\n2,1\n4,2\n6\n", "row 3: fewer cells than the header's 2"),
        ("x,y,\n2,1,\n4,2,\n6,3,\n", "header: column 3 has no name"),
    ],
)
def test_demo_rejects_bad_data(tmp_path, capsys, monkeypatch, csv_text, where):
    data = tmp_path / "stats.csv"
    data.write_text(csv_text)
    # refused before key generation
    monkeypatch.setattr(netsim, "build_pda_system", lambda *a, **k: pytest.fail("keygen ran"))
    # every case fails under regress; all but the missing 'y' also under stats
    analyses = ["regress"] if "'y'" in where else ["stats", "regress"]
    for analysis in analyses:
        code = run_cli("demo", analysis, "--data", data, "--kappa", "16", "--seed", "23")
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "bad-data"
        assert where in err["detail"]


def test_demo_stats(tmp_path, capsys):
    data = tmp_path / "stats.csv"
    data.write_text("x\n2\n4\n6\n")
    assert run_cli("demo", "stats", "--data", data, "--kappa", "16", "--seed", "21") == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["mean"] - 4.0) < 1e-6
    assert abs(out["variance"] - 8.0 / 3.0) < 1e-4


@pytest.mark.parametrize(
    "csv_text, frac_bits",
    [("x\n1e308\n2\n3\n", "16"), ((FIXTURES / "toy_data.csv").read_text(), "2000")],
    ids=["cell-1e308", "frac-bits-2000"],
)
def test_demo_value_too_wide_is_fixed_point_overflow(
    tmp_path, capsys, monkeypatch, csv_text, frac_bits
):
    data = tmp_path / "d.csv"
    data.write_text(csv_text)
    # refused before the first ceremony, so no window is claimed
    monkeypatch.setattr(netsim, "_aggregation", lambda *a, **k: pytest.fail("a ceremony ran"))
    code = run_cli(
        "demo", "stats", "--data", data, "--kappa", "16", "--frac-bits", frac_bits, "--seed", "21"
    )
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "FixedPointOverflow"


def test_demo_regress_line(capsys, monkeypatch):
    degrees = []
    inner = netsim.build_pda_system

    def recording(*args, **kwargs):
        degrees.append(kwargs.get("degrees"))
        return inner(*args, **kwargs)

    monkeypatch.setattr(netsim, "build_pda_system", recording)
    assert run_cli(
        "demo", "regress", "--data", FIXTURES / "line.csv",
        "--kappa", "24", "--seed", "22",
    ) == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["coefficients"][0] - 2.0) < 1e-3
    assert abs(out["intercept"] - 1.0) < 1e-3
    # the plan spans all 5 rows, so degree n-1 = 4 is the only key it uses
    assert degrees == [[4]]


def test_attack_rushing(capsys):
    assert run_cli("attack", "rushing", "--n", "5", "--seed", "23") == 0
    out = json.loads(capsys.readouterr().out)
    assert out["base_matched"] is True
    assert out["hardened_matched"] is False


def test_attack_rushing_runs_the_k_it_reports(capsys):
    # k=0 is the base ring, so the "hardened" run is matched exactly when the base one is
    assert run_cli("attack", "rushing", "--n", "5", "--seed", "23", "--hardened-k", "0") == 0
    out = json.loads(capsys.readouterr().out)
    assert out["hardened_k"] == 0
    assert out["hardened_matched"] == out["base_matched"]


def test_attack_collusion_recovered(capsys):
    assert run_cli(
        "attack", "collusion", "--degree", "2", "--coalition", "3",
        "--n", "6", "--seed", "24",
    ) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "recovered"
    assert out["matches_victim"] is True


def test_attack_collusion_undetermined(capsys):
    assert run_cli(
        "attack", "collusion", "--degree", "4", "--coalition", "2",
        "--n", "6", "--seed", "25",
    ) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "undetermined"
    assert len(out["witnesses"]) == 2


def test_missing_file_error(tmp_path, capsys):
    code = run_cli(
        "aggregate", "--params", tmp_path / "nope.json", "--keys", tmp_path,
        "--query", tmp_path / "q.json", "--data", tmp_path / "d.csv",
        "--seed", "1",
    )
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "missing-file"


def test_registry_that_is_a_directory_is_bad_path(keyring, tmp_path, capsys):
    params, keys = keyring
    copy = tmp_path / "keys"
    shutil.copytree(keys, copy)
    (copy / "registry.jsonl").unlink()
    (copy / "registry.jsonl").mkdir()
    code = run_cli(
        "aggregate", "--params", params, "--keys", copy, "--query", FIXTURES / "toy_query.json",
        "--data", FIXTURES / "toy_data.csv", "--seed", "34",
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "bad-path"


def test_missing_data_file_error(keyring, tmp_path, capsys):
    params, keys = keyring
    nope = tmp_path / "nope.csv"
    for argv in (
        ["aggregate", "--params", params, "--keys", keys,
         "--query", FIXTURES / "toy_query.json", "--data", nope],
        ["demo", "stats", "--data", nope],
        ["demo", "regress", "--data", nope],
    ):
        code = run_cli(*argv, "--seed", "27")
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "missing-file"


def test_corrupt_user_key_is_bad_json(keyring, tmp_path, capsys):
    params, keys = keyring
    copy = tmp_path / "keys"
    shutil.copytree(keys, copy)
    (copy / "user_1.json").write_text('{"id": 1, "evaluations": ')
    code = run_cli(
        "aggregate", "--params", params, "--keys", copy,
        "--query", FIXTURES / "toy_query.json",
        "--data", FIXTURES / "toy_data.csv",
        "--seed", "28",
    )
    captured = capsys.readouterr()
    assert code == 2
    err = json.loads(captured.err)
    assert err["error"] == "bad-json"
    assert "user_1.json" in err["detail"]


def _aggregate_with(keys, params, capsys, seed):
    code = run_cli(
        "aggregate", "--params", params, "--keys", keys,
        "--query", FIXTURES / "toy_query.json",
        "--data", FIXTURES / "toy_data.csv",
        "--seed", seed,
    )
    captured = capsys.readouterr()
    return code, captured


def test_user_key_missing_field_is_bad_json(keyring, tmp_path, capsys):
    params, keys = keyring
    written = json.loads((keys / "user_2.json").read_text())
    del written["hardened_k"]  # to_json always writes it
    for name, text in (("id", "{}"), ("hardened_k", json.dumps(written))):
        copy = tmp_path / name
        shutil.copytree(keys, copy)
        (copy / "user_2.json").write_text(text)
        code, captured = _aggregate_with(copy, params, capsys, 29)
        assert code == 2
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "bad-json"
        assert "user_2.json" in err["detail"] and f"'{name}'" in err["detail"]


@pytest.mark.parametrize(
    "edit, error",
    [
        (lambda doc, nt: doc["evaluations"].pop("2"), "InvalidKey"),  # degree missing
        (lambda doc, nt: doc["evaluations"].update({"3": "1"}), "InvalidKey"),  # extra degree
        (lambda doc, nt: doc["evaluations"].update({"2": format(nt, "x")}), "InvalidKey"),
        (lambda doc, nt: doc["evaluations"].update({"2": "-1"}), "InvalidKey"),
        (lambda doc, nt: doc.update(id=4), "InvalidKey"),  # ID beyond n
        (lambda doc, nt: doc.update(id=0), "InvalidKey"),
        (lambda doc, nt: doc.update(id=1), "DuplicateId"),  # user_2.json claims ID 1
    ],
    ids=[
        "degree-missing", "degree-extra", "evaluation-at-n-tilde", "evaluation-negative",
        "id-above-n", "id-zero", "id-repeated",
    ],
)
def test_aggregate_refuses_user_key_that_misfits_params(keyring, tmp_path, capsys, edit, error):
    params, keys = keyring
    n_tilde = int(json.loads(params.read_text())["n_tilde"], 16)
    copy = tmp_path / "keys"
    shutil.copytree(keys, copy)
    doc = json.loads((copy / "user_2.json").read_text())
    edit(doc, n_tilde)
    (copy / "user_2.json").write_text(json.dumps(doc))
    claimed = (copy / "registry.jsonl").read_text()
    code, captured = _aggregate_with(copy, params, capsys, 30)
    assert code == 1
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == error
    assert "user_2.json" in err["detail"]
    assert (copy / "registry.jsonl").read_text() == claimed


def test_aggregate_tolerates_torn_registry_tail(keyring, tmp_path, capsys):
    params, keys = keyring
    copy = tmp_path / "keys"
    shutil.copytree(keys, copy)
    registry = copy / "registry.jsonl"
    registry.write_text('{"start": 0')
    code, captured = _aggregate_with(copy, params, capsys, 31)
    assert code == 0
    assert json.loads(captured.out)["value_int"] == "41"
    assert registry.read_text() == '{"start": 0, "len": 2}\n'


def test_aggregate_reports_corrupt_registry(keyring, tmp_path, capsys):
    params, keys = keyring
    copy = tmp_path / "keys"
    shutil.copytree(keys, copy)
    (copy / "registry.jsonl").write_text('{"start": 0\n{"start": 90, "len": 1}\n')
    code, captured = _aggregate_with(copy, params, capsys, 32)
    assert code == 1
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "CorruptRegistry"
    assert "registry.jsonl:1" in err["detail"]


def test_keygen_unwritable_transcript_writes_no_keys(keyring, tmp_path, capsys):
    params, _ = keyring
    keys = tmp_path / "keys"
    code = run_cli(
        "keygen", "--params", params, "--keys", keys, "--seed", "33",
        "--transcript", tmp_path / "nodir" / "t.jsonl",
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "missing-file"
    assert list(keys.glob("user_*.json")) == []
    assert not (keys / "aggregator.json").exists()


def test_keygen_keys_path_that_is_a_file_is_bad_path(keyring, tmp_path, capsys):
    params, _ = keyring
    keys = tmp_path / "keys"
    keys.write_text("")
    transcript = tmp_path / "t.jsonl"
    code = run_cli(
        "keygen", "--params", params, "--keys", keys, "--seed", "33",
        "--transcript", transcript,
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "bad-path"
    assert not transcript.exists()


def test_keygen_refuses_a_duplicated_share_and_writes_no_keys(keyring, tmp_path, capsys, faulty):
    # user 1's key-query share to user 2 arrives twice in round 2, the
    # one key degree of three users; the refusal keeps the error contract
    params, _ = keyring
    keys = tmp_path / "keys"
    faulty("key-query:2", 1, "duplicate")
    code = run_cli("keygen", "--params", params, "--keys", keys, "--seed", "34")
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "UnexpectedMessage",
        "detail": "[round 2] user 1: repeated 'key-query:2' message to user 2 (body length 1)",
    }
    assert not keys.exists()


def test_a_forked_keygen_refuses_a_duplicated_share_in_one_line(
    keyring, tmp_path, capfd, faulty, forked
):
    # the same refusal with the key degree's shares from a worker: the
    # process's own stderr, the worker's included, holds the one JSON line
    params, _ = keyring
    keys = tmp_path / "keys"
    faulty("key-query:2", 1, "duplicate")
    code = run_cli("keygen", "--params", params, "--keys", keys, "--seed", "34")
    captured = capfd.readouterr()
    assert code == 1
    assert forked == []
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert json.loads(captured.err) == {
        "error": "UnexpectedMessage",
        "detail": "[round 2] user 1: repeated 'key-query:2' message to user 2 (body length 1)",
    }
    assert not keys.exists()
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize(
    "change, error", [({"n_min": 2}, "GroupTooSmall"), ({"p": "f"}, "InvalidParams")]
)
def test_keygen_refuses_broken_arith_params(tmp_path, capsys, change, error):
    params = tmp_path / "params.json"
    assert run_cli(
        "gen-params", "--scheme", "arith", "--kappa", "12", "--n", "4",
        "--seed", "9", "--out", params,
    ) == 0
    params.write_text(json.dumps({**json.loads(params.read_text()), **change}))
    capsys.readouterr()
    keys = tmp_path / "keys"
    code = run_cli("keygen", "--params", params, "--keys", keys, "--seed", "10")
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == error
    assert not keys.exists()


def _bad_json(code, captured, path, name):
    assert code == 2
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "bad-json"
    assert str(path) in err["detail"] and repr(name) in err["detail"]


@pytest.mark.parametrize(
    "scheme, change, name",
    [
        ("pda", None, "n_cap"),  # {} carries no n_min, so it reads as framework params
        ("pda", {"n_cap": "zz"}, "n_cap"),
        ("pda", {"theta_min": None}, "theta_min"),
        ("arith", {"p": "zz"}, "p"),
        ("arith", {"n": "four"}, "n"),
    ],
    ids=["empty", "pda-n_cap-not-hex", "pda-theta_min-null", "arith-p-not-hex",
         "arith-n-not-int"],
)
def test_keygen_reports_malformed_params_as_bad_json(tmp_path, capsys, scheme, change, name):
    params = tmp_path / "params.json"
    assert run_cli(
        "gen-params", "--scheme", scheme, "--kappa", "12", "--n", "4",
        "--seed", "9", "--out", params,
    ) == 0
    doc = {} if change is None else {**json.loads(params.read_text()), **change}
    params.write_text(json.dumps(doc))
    capsys.readouterr()
    keys = tmp_path / "keys"
    code = run_cli("keygen", "--params", params, "--keys", keys, "--seed", "10")
    _bad_json(code, capsys.readouterr(), params, name)
    assert not keys.exists()


@pytest.mark.parametrize(
    "target, change, name",
    [
        ("params", None, "n_cap"),
        ("params", {"n_cap": "zz"}, "n_cap"),
        ("query", None, "coeffs"),
        ("query", {"coeffs": 7}, "coeffs"),
        ("query", {"window": {"start": 0}}, "window"),
        ("aggregator", None, "n_a"),
        ("aggregator", {"n_a": "zz"}, "n_a"),
        ("aggregator", {"mu": 5}, "mu"),
        ("aggregator", {"lambda": None, "mu": None}, "lambda"),
    ],
    ids=["params-empty", "params-n_cap-not-hex", "query-empty", "query-coeffs-not-list",
         "query-window-without-len", "aggregator-empty", "aggregator-n_a-not-hex",
         "aggregator-mu-not-string", "aggregator-public-only"],
)
def test_aggregate_reports_malformed_json_as_bad_json(keyring, tmp_path, capsys, target, change, name):
    params, keys = keyring
    copy = tmp_path / "keys"
    shutil.copytree(keys, copy)
    files = {
        "params": tmp_path / "params.json",
        "query": tmp_path / "query.json",
        "aggregator": copy / "aggregator.json",
    }
    shutil.copy(params, files["params"])
    shutil.copy(FIXTURES / "toy_query.json", files["query"])
    path = files[target]
    doc = {} if change is None else {**json.loads(path.read_text()), **change}
    path.write_text(json.dumps({k: v for k, v in doc.items() if v is not None}))  # None drops
    claimed = (copy / "registry.jsonl").read_text()
    code = run_cli(
        "aggregate", "--params", files["params"], "--keys", copy, "--query", files["query"],
        "--data", FIXTURES / "toy_data.csv", "--seed", "34",
    )
    _bad_json(code, capsys.readouterr(), path, name)
    assert (copy / "registry.jsonl").read_text() == claimed


def test_json_file_that_is_not_an_object_is_bad_json(tmp_path, capsys):
    params = tmp_path / "params.json"
    params.write_text("[1, 2]")
    code = run_cli("keygen", "--params", params, "--keys", tmp_path / "keys", "--seed", "35")
    captured = capsys.readouterr()
    assert code == 2
    assert json.loads(captured.err) == {
        "error": "bad-json", "detail": f"{params}: not a JSON object"
    }


def test_json_file_that_is_not_utf8_is_bad_json(tmp_path, capsys):
    params = tmp_path / "params.json"
    params.write_bytes(b"\x99{}")
    code = run_cli("keygen", "--params", params, "--keys", tmp_path / "keys", "--seed", "35")
    captured = capsys.readouterr()
    assert code == 2
    assert json.loads(captured.err)["error"] == "bad-json"
    assert not (tmp_path / "keys").exists()


@pytest.mark.parametrize(
    "seed, command",
    [
        ("abc", "gen-params --kappa 16 --n 5 --out {tmp}/p.json"),
        ("1", "gen-params --kappa 3 --n 5 --out {tmp}/p.json"),
        ("1", "gen-params --kappa 16 --n 2 --out {tmp}/p.json"),
        ("1", "gen-params --scheme arith --kappa 3 --n 5 --out {tmp}/p.json"),
        ("1", "gen-params --n-min 0 --kappa 16 --n 5 --out {tmp}/p.json"),
        ("1", "gen-params --scheme arith --n-min 0 --kappa 16 --n 5 --out {tmp}/p.json"),
        ("1", "demo stats --kappa 4 --data {tmp}/d.csv"),
        ("1", "attack collusion --degree 0"),
        ("1", "keygen --params {params} --keys {tmp}/k --m-max 0"),
        ("1", "keygen --params {params} --keys {tmp}/k --hardened-k -1"),
        ("1", "keygen --params {params} --keys {tmp}/k --authority"),
    ],
)
def test_bad_argument_is_bad_args(keyring, tmp_path, capsys, monkeypatch, seed, command):
    monkeypatch.setenv(cli.SEED_ENV, seed)
    (tmp_path / "d.csv").write_text("x\n2\n4\n6\n")
    argv = command.format(tmp=shlex.quote(str(tmp_path)), params=shlex.quote(str(keyring[0])))
    code = cli.main(shlex.split(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "bad-args"
    assert not (tmp_path / "k").exists()
    assert not (tmp_path / "p.json").exists()


def test_readme_cli_block_parses(tmp_path, monkeypatch, capsys):
    # every command of README's CLI block runs, in order, from a directory
    # holding a copy of fixtures/, and prints one JSON report
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```", 2)[1]
    commands = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(c) for c in commands if c.startswith("pda-kit ")]
    assert commands
    shutil.copytree(FIXTURES, tmp_path / "fixtures")
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert cli.main(argv[1:]) == 0, argv
        captured = capsys.readouterr()
        assert captured.err == ""
        assert isinstance(json.loads(captured.out), dict), argv
