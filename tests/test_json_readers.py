"""JSON readers take an integer field only as a JSON integer (no float, bool or
string), an integer key only in canonical decimal, and reload what the writers wrote."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        ({"id": 2, "evaluations": {"3": "1f"}}, "hardened_k"),  # to_json always writes it
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


# ---------------------------------------------------------------------------
# round trips, and keys that name an integer
# ---------------------------------------------------------------------------

_ids = st.integers(1, 40)
_values = st.integers(0, 2**80)


@st.composite
def _queries(draw):
    participants = tuple(draw(st.lists(_ids, min_size=1, max_size=6, unique=True)))
    m = draw(st.integers(1, 4))
    powers = st.dictionaries(st.integers(0, m - 1), st.integers(0, 9), min_size=1)
    return pda.PdaQuery(
        coeffs=tuple(draw(st.lists(st.integers(-(2**70), 2**70), min_size=m, max_size=m))),
        exponents=draw(st.dictionaries(st.sampled_from(participants), powers, min_size=1)),
        participants=participants,
        window=pda.Window(draw(st.integers(0, 2**40)), m),
    )


_enc_keys = st.builds(
    pda.PdaEncKey,
    id=_ids,
    evaluations=st.dictionaries(st.integers(2, 64), _values, min_size=1),
    hardened_k=st.integers(0, 3),
)
_arith_keys = st.builds(
    arith.ArithEncKey, id=_ids, shares=st.dictionaries(st.integers(3, 64), _values, min_size=1)
)


@st.composite
def _polynomials(draw):
    participants = tuple(draw(st.lists(_ids, min_size=1, max_size=6, unique=True)))
    powers = st.dictionaries(st.sampled_from(participants), st.integers(1, 5), min_size=1)
    term = st.builds(models.PolyTerm, coeff=_values, powers=powers.map(lambda d: tuple(d.items())))
    return models.AggPolynomial(
        terms=tuple(draw(st.lists(term, min_size=1, max_size=4))), participants=participants
    )


def _written(value) -> dict:
    return json.loads(json.dumps(value.to_json()))


@settings(max_examples=150, deadline=None)
@given(st.one_of(_queries(), _enc_keys, _arith_keys, _polynomials()))
def test_readers_reload_what_the_writers_wrote(value):
    assert type(value).from_json(_written(value)) == value


# int() reads each of these as the key it respells; "1_0" is 10
_respellings = st.sampled_from([
    lambda k: "0" + k,
    lambda k: "+" + k,
    lambda k: " " + k,
    lambda k: k + "\n",
    lambda k: k[0] + "_" + k[1:] if len(k) > 1 else "00" + k,
])


def _respell_first(mapping: dict, spell) -> dict:
    first, *rest = mapping
    return {spell(first): mapping[first], **{k: mapping[k] for k in rest}}


def _each_first(mapping: dict, spell) -> dict:
    return {k: _respell_first(v, spell) for k, v in mapping.items()}


def _first_term(terms: list, spell) -> list:
    head, *tail = terms
    return [{**head, "powers": _respell_first(head["powers"], spell)}, *tail]


@pytest.mark.parametrize(
    "values, name, respell, refused",
    [
        (_queries(), "exponents", _respell_first, "exponents"),  # a user key
        (_queries(), "exponents", _each_first, "exponents"),  # a term key
        (_enc_keys, "evaluations", _respell_first, "evaluations"),
        (_arith_keys, "shares", _respell_first, "shares"),
        (_polynomials(), "terms", _first_term, "powers"),
    ],
    ids=["query-user", "query-term", "enc-key", "arith-key", "polynomial"],
)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_readers_refuse_a_key_not_in_canonical_decimal(values, name, respell, refused, data):
    value, spell = data.draw(values), data.draw(_respellings)
    doc = _written(value)
    doc[name] = respell(doc[name], spell)
    with pytest.raises(BadField, match=f"'{refused}'"):
        type(value).from_json(doc)


def test_one_user_named_twice_in_a_term_is_refused():
    with pytest.raises(BadField, match="'powers'"):
        models.AggPolynomial.from_json(
            {"terms": [{"coeff": "1", "powers": {"1": 1, "01": 2, "2": 1}}], "participants": [1, 2]}
        )
    with pytest.raises(BadField, match="'evaluations'"):
        pda.PdaEncKey.from_json({"id": 1, "evaluations": {"2": "a", "02": "b"}})
    twice = models.PolyTerm(coeff=1, powers=((1, 1), (1, 2)))
    with pytest.raises(ValueError, match="twice"):
        models.AggPolynomial(terms=(twice,), participants=(1, 2, 3)).validate()
