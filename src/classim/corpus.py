"""Item corpus loading, validation, and filtering.

The corpus file is a single UTF-8 JSON array of item records. Items are
validated whole at load time; fields it does not know are accepted and
ignored, so richer exports load as they are.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import Any, Dict, Iterable, Optional, Tuple, Union, get_args, get_origin

VALID_GRADES = (4, 8, 12)
DIFFICULTY_LABELS = ("Easy", "Medium", "Hard")

class ContentArea(str, Enum):
    ALGEBRA = "Algebra"
    DATA_ANALYSIS = "DataAnalysis"
    GEOMETRY = "Geometry"
    MEASUREMENT = "Measurement"
    NUMBER_PROPERTIES = "NumberProperties"

    @property
    def display_name(self) -> str:
        return _DISPLAY_NAMES[self]


_DISPLAY_NAMES = {
    ContentArea.ALGEBRA: "Algebra",
    ContentArea.DATA_ANALYSIS: "Data Analysis, Statistics, and Probability",
    ContentArea.GEOMETRY: "Geometry",
    ContentArea.MEASUREMENT: "Measurement",
    ContentArea.NUMBER_PROPERTIES: "Number Properties and Operations",
}

# NAEP exports spell content areas several ways; normalize on load.
_CONTENT_ALIASES = {
    "algebra": ContentArea.ALGEBRA,
    "dataanalysis": ContentArea.DATA_ANALYSIS,
    "dataanalysisstatisticsandprobability": ContentArea.DATA_ANALYSIS,
    "geometry": ContentArea.GEOMETRY,
    "measurement": ContentArea.MEASUREMENT,
    "numberproperties": ContentArea.NUMBER_PROPERTIES,
    "numberpropertiesandoperations": ContentArea.NUMBER_PROPERTIES,
}


class CorpusError(ValueError):
    """Base class for corpus problems."""


class CorpusParseError(CorpusError):
    """The file is not valid JSON; carries line/column context."""


class CorpusValidationError(CorpusError):
    """A record violates an item invariant; ``item`` is its item_id, or its
    0-based position in the file when it has no usable item_id."""

    def __init__(self, item: Union[str, int], field_name: str, message: str):
        where = f"item {item!r}" if isinstance(item, str) else f"record [{item}]"
        super().__init__(f"{where}, field {field_name!r}: {message}")


@dataclass(frozen=True)
class Item:
    """One multiple-choice question plus its real-world statistics."""

    item_id: str
    grade: int
    content_area: ContentArea
    difficulty_label: str
    stem: str
    choices: tuple[tuple[str, str], ...]
    correct_key: str
    real_percent_correct: float
    real_choice_distribution: Optional[dict[str, float]] = None
    real_subgroup_percent_correct: Optional[dict[str, float]] = None

    @cached_property
    def choice_letters(self) -> tuple[str, ...]:
        # computed once per item: every graded reply and distractor draw reads it
        return tuple(letter for letter, _ in self.choices)

    def wrong_letters(self) -> tuple[str, ...]:
        return tuple(c for c in self.choice_letters if c != self.correct_key)


class Corpus:
    """Immutable, indexed collection of items."""

    def __init__(self, items: Iterable[Item]):
        self.items: tuple[Item, ...] = tuple(items)
        self.by_id: dict[str, Item] = {}
        for item in self.items:
            if item.item_id in self.by_id:
                raise CorpusValidationError(item.item_id, "item_id", "duplicate item_id")
            self.by_id[item.item_id] = item

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(self.items)

    def grades_present(self) -> list[int]:
        return [g for g in VALID_GRADES if any(i.grade == g for i in self.items)]


def parse_content_area(raw: str) -> ContentArea:
    key = "".join(ch for ch in raw.lower() if ch.isalnum())
    try:
        return _CONTENT_ALIASES[key]
    except KeyError:
        raise ValueError(f"unknown content area {raw!r}") from None


def is_number(value: object) -> bool:
    """Whether ``value`` is a JSON number as RFC 8259 defines one: not
    ``true``/``false`` (bool is an int subclass), not NaN or an infinity,
    and not an integer too large for a float."""
    # int-to-float comparisons are exact, and every comparison with NaN is false
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and -sys.float_info.max <= value <= sys.float_info.max
    )


def json_kinds(hint: object) -> Tuple[type, ...]:
    """The types a field annotated ``hint`` accepts, as JSON spells them:
    ``Optional`` adds null, a float also takes an int, a ``Dict`` is a dict."""
    if get_origin(hint) is Union:
        return tuple(kind for arg in get_args(hint) for kind in json_kinds(arg))
    if hint is float:
        return (float, int)
    return (get_origin(hint) or hint,)  # type: ignore[return-value]


def check_kind(name: str, value: object, kinds: Tuple[type, ...]) -> None:
    """A ValueError naming ``name`` unless ``value`` has one of ``kinds``
    (from :func:`json_kinds`); a bool passes only where bool is listed, and
    an int or float only if :func:`is_number` holds."""
    if isinstance(value, bool):
        valid = bool in kinds
    elif isinstance(value, (int, float)):
        valid = isinstance(value, kinds) and is_number(value)
    else:
        valid = isinstance(value, kinds)
    if not valid:
        names = {type(None): "null", dict: "a JSON object"}
        expected = " or ".join(names.get(kind, kind.__name__) for kind in kinds)
        raise ValueError(f"{name} must be {expected}, got {value!r}")


def read_json(path: str | Path, kind: type, what: str, error: type = ValueError) -> Any:
    """The JSON value in the UTF-8 file ``path``; an ``error`` naming the
    file unless it parses to a ``kind`` (``what`` says what it must hold)."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except json.JSONDecodeError as exc:
            raise error(
                f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from None
        except RecursionError:
            raise error(f"{path}: invalid JSON: nested too deeply") from None
        except UnicodeDecodeError as exc:
            raise error(f"{path}: not UTF-8 text: {exc}") from None
    if not isinstance(payload, kind):
        raise error(f"{path}: {what}")
    return payload


# The JSON kinds of an item record's fields, as the file spells them; a
# field that may be null may also be absent. Other fields are ignored.
_RECORD_KINDS: Dict[str, Tuple[type, ...]] = {
    "item_id": (str,),
    "grade": (int,),
    "content_area": (str,),
    "difficulty": (str,),
    "stem": (str,),
    "choices": (list,),
    "correct_key": (str,),
    "real_percent_correct": (float, int),
    "real_choice_distribution": (dict, type(None)),
    "real_subgroup_percent_correct": (dict, type(None)),
}


def _fractions(
    item_id: str, field_name: str, rates: Optional[dict], label: str, most: float
) -> Optional[Dict[str, float]]:
    """``rates`` with float values; an error naming the entry unless each
    value is a number in [0, ``most``]."""
    if rates is None:
        return None
    for key, value in rates.items():
        if not (is_number(value) and 0.0 <= value <= most):
            message = f"{label} {key!r} must be a number in [0, {most}], got {value!r}"
            raise CorpusValidationError(item_id, field_name, message)
    return {key: float(value) for key, value in rates.items()}


def _validate_item(record: object, position: int) -> Item:
    if not isinstance(record, dict):
        raise CorpusValidationError(position, "record", f"must be an object, got {record!r}")
    item_id = record.get("item_id")
    if not isinstance(item_id, str) or not item_id:
        message = f"must be a non-empty string, got {item_id!r}"
        raise CorpusValidationError(position, "item_id", message)

    def fail(field_name: str, message: str) -> CorpusValidationError:
        return CorpusValidationError(item_id, field_name, message)

    for name, kinds in _RECORD_KINDS.items():
        if name not in record and type(None) not in kinds:
            raise fail(name, "missing required field")
        try:
            check_kind("value", record.get(name), kinds)
        except ValueError as exc:
            raise fail(name, str(exc)) from None

    grade, difficulty, stem = record["grade"], record["difficulty"], record["stem"]
    if grade not in VALID_GRADES:
        raise fail("grade", f"grade {grade!r} not in {VALID_GRADES}")
    try:
        area = parse_content_area(record["content_area"])
    except ValueError as exc:
        raise fail("content_area", str(exc)) from None
    if difficulty not in DIFFICULTY_LABELS:
        raise fail("difficulty", f"{difficulty!r} not in {DIFFICULTY_LABELS}")
    if not stem.strip():
        raise fail("stem", "must be non-empty text")

    raw_choices = record["choices"]
    if not 4 <= len(raw_choices) <= 5:
        raise fail("choices", "need 4 or 5 answer choices")
    for pos, entry in enumerate(raw_choices):
        if not (
            isinstance(entry, dict)
            and isinstance(entry.get("letter"), str)
            and isinstance(entry.get("text"), str)
        ):
            raise fail("choices", f"choice #{pos} must be an object with string letter and text")
    choices = tuple((entry["letter"], entry["text"]) for entry in raw_choices)
    letters = [letter for letter, _ in choices]
    expected = [chr(ord("A") + i) for i in range(len(letters))]
    if letters != expected:
        message = f"letters must be consecutive from A (got {letters}, expected {expected})"
        raise fail("choices", message)
    correct_key = record["correct_key"]
    if correct_key not in letters:
        raise fail("correct_key", f"correct key {correct_key!r} absent from choices {letters}")
    rate = record["real_percent_correct"]
    if not 0.0 <= rate <= 1.0:
        raise fail("real_percent_correct", f"must be a fraction in [0,1], got {rate!r}")

    # a share past the sum's upper tolerance cannot pass the sum check below
    distribution = _fractions(
        item_id, "real_choice_distribution", record.get("real_choice_distribution"),
        "share of", 1.01,
    )
    if distribution is not None:
        unknown = set(distribution) - set(letters)
        if unknown:
            raise fail("real_choice_distribution", f"letters {sorted(unknown)} not among choices")
        if correct_key not in distribution:
            raise fail("real_choice_distribution", f"missing correct key {correct_key!r}")
        total = sum(distribution.values())
        # NAEP tables round per-choice fractions; absorb that, reject worse.
        if not (0.99 <= total <= 1.01):
            message = f"fractions sum to {total:.4f}, outside [0.99, 1.01]"
            raise fail("real_choice_distribution", message)
        distribution = {k: v / total for k, v in distribution.items()}

    return Item(
        item_id=item_id,
        grade=grade,
        content_area=area,
        difficulty_label=difficulty,
        stem=stem,
        choices=choices,
        correct_key=correct_key,
        real_percent_correct=float(rate),
        real_choice_distribution=distribution,
        real_subgroup_percent_correct=_fractions(
            item_id, "real_subgroup_percent_correct",
            record.get("real_subgroup_percent_correct"), "subgroup", 1,
        ),
    )


def parse_corpus_records(records: Iterable[object]) -> Corpus:
    """Validate already-decoded item records into a corpus."""
    return Corpus(_validate_item(record, position) for position, record in enumerate(records))


def load_corpus(path: str | Path) -> Corpus:
    """Load and validate a corpus file.

    Raises CorpusParseError for malformed JSON (with line context) and
    CorpusValidationError for the first invariant violation found.
    """
    records = read_json(
        Path(path), list, "corpus must be a JSON array of item records", CorpusParseError
    )
    return parse_corpus_records(records)


def filter_corpus(corpus: Corpus, grade: int) -> Corpus:
    """The items of one grade, in corpus order."""
    if grade not in VALID_GRADES:
        raise ValueError(f"unknown grade {grade!r}")
    return Corpus(item for item in corpus if item.grade == grade)
