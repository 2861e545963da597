"""The QACase model: validation, JSON round-trip, digests, artifacts."""

import pytest

from repro.qa.cases import (
    CASE_FORMAT,
    CaseError,
    QACase,
    case_engine,
    is_valid_case,
    load_case,
)


def _case(**kw):
    kw.setdefault("engine", "single")
    return QACase(**kw)


def test_round_trip_preserves_everything():
    case = _case(engine="multi", geometry_kind="extend", block_width=4,
                 family="loops", params={"depth": 2, "trips": 5},
                 budget=900, repeats=2,
                 config={"history_length": 6}, n_blocks=3)
    assert QACase.from_dict(case.to_dict()) == case


def test_digest_is_stable_and_content_sensitive():
    a = _case(budget=500)
    b = _case(budget=500)
    c = _case(budget=501)
    assert a.digest() == b.digest()
    assert a.digest() != c.digest()
    assert len(a.digest()) == 12


def test_validation_rejects_bad_fields():
    with pytest.raises(CaseError):
        _case(engine="quad")
    with pytest.raises(CaseError):
        _case(geometry_kind="weird")
    with pytest.raises(CaseError):
        _case(budget=10)
    with pytest.raises(CaseError):
        _case(repeats=0)
    with pytest.raises(CaseError):
        QACase.from_dict({"engine": "single", "unexpected": 1})
    with pytest.raises(CaseError):  # only grouped engines record one
        _case(engine="single", record_timeline=True)


def test_engine_constraints_surface_as_case_errors():
    # dual/multi hold the BIT in the i-cache; a separate table is a
    # configuration error the engine itself raises.
    case = _case(engine="dual", config={"bit_entries": 8})
    with pytest.raises(CaseError):
        case_engine(case)
    assert not is_valid_case(case)
    assert is_valid_case(_case(engine="dual"))


def test_engine_config_merges_track_recovery():
    case = _case(track_recovery=True, config={"history_length": 4})
    config = case.engine_config()
    assert config.track_recovery
    assert config.history_length == 4


def test_all_four_engines_construct():
    for engine in ("single", "dual", "multi", "two_ahead"):
        assert case_engine(_case(engine=engine)) is not None


def test_load_case_checks_format_tag():
    case = _case()
    assert load_case({"format": CASE_FORMAT,
                      "case": case.to_dict()}) == case
    assert load_case(case.to_dict()) == case          # bare dict form
    with pytest.raises(CaseError):
        load_case({"format": 99, "case": case.to_dict()})
    with pytest.raises(CaseError):
        load_case({"format": CASE_FORMAT, "case": "not-an-object"})


def test_label_names_the_interesting_bits():
    case = _case(engine="multi", n_blocks=3, family="near")
    label = case.label()
    assert "multi" in label and "x3" in label and "near" in label
