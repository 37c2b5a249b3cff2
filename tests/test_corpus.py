import json
from collections import Counter
from typing import Dict, Optional

import pytest

from classim.corpus import (
    ContentArea,
    CorpusParseError,
    CorpusValidationError,
    check_kind,
    filter_corpus,
    is_number,
    json_kinds,
    load_corpus,
    parse_content_area,
)
from conftest import make_item_record, write_corpus


def test_load_minimal_corpus(corpus_factory):
    path = corpus_factory([make_item_record(0), make_item_record(1)])
    corpus = load_corpus(path)
    assert len(corpus) == 2
    item = corpus.by_id["g8-0000"]
    assert item.grade == 8
    assert item.choice_letters == ("A", "B", "C", "D")
    assert item.wrong_letters() == ("B", "C", "D")


def test_a_record_with_an_unknown_field_still_loads(corpus_factory):
    records = [
        make_item_record(i, with_distribution=True, with_subgroups=True)
        for i in range(6)
    ]
    plain = load_corpus(corpus_factory(records))
    records[0]["source_year"] = 2017  # an export's own field, ignored
    corpus = load_corpus(corpus_factory(records))
    assert corpus.items == plain.items


def test_parse_error_reports_location(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('[{"item_id": "x",}]', encoding="utf-8")
    with pytest.raises(CorpusParseError) as err:
        load_corpus(bad)
    assert "line 1" in str(err.value)


def test_corpus_must_be_an_array(tmp_path):
    bad = tmp_path / "obj.json"
    bad.write_text('{"items": []}', encoding="utf-8")
    with pytest.raises(CorpusParseError):
        load_corpus(bad)


@pytest.mark.parametrize(
    "mutate,field_name",
    [
        (lambda r: r.update(grade=5), "grade"),
        (lambda r: r.update(content_area="History"), "content_area"),
        (lambda r: r.update(difficulty="Impossible"), "difficulty"),
        (lambda r: r.update(stem="   "), "stem"),
        (lambda r: r.update(choices=r["choices"][:3]), "choices"),
        (lambda r: r.update(correct_key="E"), "correct_key"),
        (lambda r: r.update(real_percent_correct=1.7), "real_percent_correct"),
        (lambda r: r.pop("stem"), "stem"),
    ],
)
def test_validation_rejects_bad_records(corpus_factory, mutate, field_name):
    record = make_item_record(0)
    mutate(record)
    path = corpus_factory([record])
    with pytest.raises(CorpusValidationError) as err:
        load_corpus(path)
    assert str(err.value).startswith(f"item 'g8-0000', field {field_name!r}: ")


@pytest.mark.parametrize("value", [0, -3, 1.5, 10**300, 1e308])
def test_finite_numbers_are_numbers(value):
    assert is_number(value)


@pytest.mark.parametrize(
    "value",
    [True, False, float("nan"), float("inf"), -float("inf"), 10**400, -(10**400), "1", None],
)
def test_no_json_number_is_nan_infinite_boolean_or_too_large(value):
    assert not is_number(value)


def test_kind_check_applies_the_number_rule():
    kinds = json_kinds(Optional[float])
    assert kinds == (float, int, type(None))
    for value in (0.5, 2, None):
        check_kind("rate", value, kinds)
    for value in (True, float("nan"), 10**400, "0.5"):
        with pytest.raises(ValueError, match=r"^rate must be float or int or null, got "):
            check_kind("rate", value, kinds)
    with pytest.raises(ValueError, match=r"^field must be a JSON object, got \[\]$"):
        check_kind("field", [], json_kinds(Dict[str, float]))


def test_choice_letters_must_start_at_a(corpus_factory):
    record = make_item_record(0)
    record["choices"] = [
        {"letter": letter, "text": "t"} for letter in ("B", "C", "D", "E")
    ]
    record["correct_key"] = "B"
    with pytest.raises(CorpusValidationError):
        load_corpus(corpus_factory([record]))


def test_duplicate_ids_rejected(corpus_factory):
    path = corpus_factory([make_item_record(0), make_item_record(0)])
    with pytest.raises(CorpusValidationError) as err:
        load_corpus(path)
    assert "duplicate" in str(err.value)


def test_choice_distribution_renormalized_within_tolerance(corpus_factory):
    record = make_item_record(0, rate=0.5)
    # rounds to 1.004: inside tolerance, renormalized on load
    record["real_choice_distribution"] = {"A": 0.504, "B": 0.2, "C": 0.2, "D": 0.1}
    corpus = load_corpus(corpus_factory([record]))
    dist = corpus.by_id["g8-0000"].real_choice_distribution
    assert abs(sum(dist.values()) - 1.0) < 1e-12


def test_choice_distribution_far_from_one_rejected(corpus_factory):
    record = make_item_record(0, rate=0.5)
    record["real_choice_distribution"] = {"A": 0.5, "B": 0.2, "C": 0.2, "D": 0.2}
    with pytest.raises(CorpusValidationError):
        load_corpus(corpus_factory([record]))


def test_choice_distribution_must_include_correct_key(corpus_factory):
    record = make_item_record(0, rate=0.5)
    record["real_choice_distribution"] = {"B": 0.5, "C": 0.3, "D": 0.2}
    with pytest.raises(CorpusValidationError):
        load_corpus(corpus_factory([record]))


def test_subgroup_rates_validated(corpus_factory):
    record = make_item_record(0)
    record["real_subgroup_percent_correct"] = {"female": 1.5}
    with pytest.raises(CorpusValidationError):
        load_corpus(corpus_factory([record]))


def test_content_area_aliases():
    assert parse_content_area("Algebra") is ContentArea.ALGEBRA
    assert (
        parse_content_area("Data Analysis, Statistics, and Probability")
        is ContentArea.DATA_ANALYSIS
    )
    assert (
        parse_content_area("number properties and operations")
        is ContentArea.NUMBER_PROPERTIES
    )
    with pytest.raises(ValueError):
        parse_content_area("Recess")


def test_display_names():
    assert ContentArea.GEOMETRY.display_name == "Geometry"
    assert (
        ContentArea.NUMBER_PROPERTIES.display_name
        == "Number Properties and Operations"
    )


def test_filtering(corpus_factory):
    records = []
    index = 0
    for grade in (4, 8, 12):
        for _ in range(4):
            records.append(make_item_record(index, grade=grade))
            index += 1
    corpus = load_corpus(corpus_factory(records))
    assert len(filter_corpus(corpus, grade=4)) == 4
    eighth = filter_corpus(corpus, grade=8)
    assert [i.item_id for i in eighth] == [i.item_id for i in corpus if i.grade == 8]
    with pytest.raises(ValueError):
        filter_corpus(corpus, grade=5)


def test_grade_difficulty_census(corpus_factory):
    # a corpus shaped like a full production export
    shape = {
        (4, "Easy"): 102,
        (4, "Medium"): 76,
        (4, "Hard"): 50,
        (8, "Easy"): 108,
        (8, "Medium"): 106,
        (8, "Hard"): 68,
        (12, "Easy"): 44,
        (12, "Medium"): 35,
        (12, "Hard"): 42,
    }
    records = []
    index = 0
    for (grade, difficulty), count in shape.items():
        for _ in range(count):
            records.append(make_item_record(index, grade=grade, difficulty=difficulty))
            index += 1
    corpus = load_corpus(corpus_factory(records))
    assert len(corpus) == 631
    assert Counter(item.grade for item in corpus) == {4: 228, 8: 282, 12: 121}
    assert Counter((item.grade, item.difficulty_label) for item in corpus) == shape
    assert corpus.grades_present() == [4, 8, 12]


def test_five_choice_items_supported(corpus_factory):
    record = make_item_record(0, n_choices=5)
    corpus = load_corpus(corpus_factory([record]))
    item = corpus.by_id["g8-0000"]
    assert item.choice_letters == ("A", "B", "C", "D", "E")
    assert len(item.wrong_letters()) == 4
