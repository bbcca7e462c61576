"""JSON readers take an integer field only as a JSON integer: no float, bool or string."""

import pytest

from pda_kit import arith, models, pda
from pda_kit.errors import BadField, CorruptRegistry, field


def _refused(reader, good: dict, cases) -> None:
    reader(good)
    for doc, name in cases:
        with pytest.raises(BadField, match=f"'{name}'"):
            reader(doc)


def test_field_takes_only_a_json_integer():
    assert field({"n": 7}, "n") == 7
    for bad in (7.0, 7.5, True, "7", None):
        with pytest.raises(BadField, match="'n'"):
            field({"n": bad}, "n")


def test_pda_query_refuses_floats():
    good = {
        "coeffs": [1],
        "exponents": {"1": {"0": 1}},
        "participants": [1, 2, 3],
        "window": {"start": 0, "len": 1},
    }
    assert pda.PdaQuery.from_json(good).participants == (1, 2, 3)
    _refused(pda.PdaQuery.from_json, good, [
        ({**good, "coeffs": [1.5]}, "coeffs"),
        ({**good, "coeffs": [True]}, "coeffs"),
        ({**good, "exponents": {"1": {"0": 1.0}}}, "exponents"),
        ({**good, "participants": [1, 2, 3.7]}, "participants"),
        ({**good, "participants": [1, 2, "3"]}, "participants"),
        ({**good, "window": {"start": 0.5, "len": 1}}, "window"),
        ({**good, "window": {"start": 0, "len": False}}, "window"),
    ])


def test_pda_enc_key_refuses_float_id_and_bool_hardening():
    good = {"id": 2, "evaluations": {"3": "1f"}, "hardened_k": 1}
    assert pda.PdaEncKey.from_json(good).hardened_k == 1
    _refused(pda.PdaEncKey.from_json, good, [
        ({**good, "id": 2.9}, "id"),
        ({**good, "hardened_k": True}, "hardened_k"),
        ({**good, "hardened_k": 1.0}, "hardened_k"),
    ])


def test_arith_enc_key_refuses_a_float_id():
    good = {"id": 2, "shares": {"3": "1f"}}
    _refused(arith.ArithEncKey.from_json, good, [
        ({**good, "id": 2.9}, "id"),
        ({**good, "id": False}, "id"),
    ])


def test_agg_polynomial_refuses_float_powers_and_participants():
    good = {"terms": [{"coeff": "7", "powers": {"1": 2}}], "participants": [1, 2, 3]}
    _refused(models.AggPolynomial.from_json, good, [
        ({**good, "terms": [{"coeff": "7", "powers": {"1": 2.5}}]}, "powers"),
        ({**good, "terms": [{"coeff": "7", "powers": {"1": True}}]}, "powers"),
        ({**good, "participants": [1, 2, 3.0]}, "participants"),
    ])


@pytest.mark.parametrize("line", ['{"start": 0.5, "len": 4}', '{"start": 0, "len": true}'])
def test_registry_refuses_a_non_integer_window(tmp_path, line):
    path = tmp_path / "registry.jsonl"
    path.write_text(f'{{"start": 8, "len": 2}}\n{line}\n')
    with pytest.raises(CorruptRegistry, match=":2:"):
        pda.SlotRegistry.load(path)
