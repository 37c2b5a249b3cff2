"""Item corpus loading, validation, and filtering.

The corpus file is a single UTF-8 JSON array of item records. Items are
validated whole at load time; unknown extra fields are carried along
opaquely so richer exports survive a round trip.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, Optional

VALID_GRADES = (4, 8, 12)
DIFFICULTY_LABELS = ("Easy", "Medium", "Hard")

_KNOWN_FIELDS = {
    "item_id",
    "grade",
    "content_area",
    "difficulty",
    "stem",
    "choices",
    "correct_key",
    "real_percent_correct",
    "real_choice_distribution",
    "real_subgroup_percent_correct",
}


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
    """A record violates an item invariant."""

    def __init__(self, item_id: str, field_name: str, message: str):
        self.item_id = item_id
        self.field_name = field_name
        super().__init__(f"item {item_id!r}, field {field_name!r}: {message}")


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
    extra: dict = field(default_factory=dict, compare=False)

    @property
    def choice_letters(self) -> tuple[str, ...]:
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


def _require(record: dict, item_id: str, field_name: str):
    if field_name not in record:
        raise CorpusValidationError(item_id, field_name, "missing required field")
    return record[field_name]


def _validate_item(record: dict) -> Item:
    if not isinstance(record, dict):
        raise CorpusValidationError("<unknown>", "record", "item record must be an object")
    item_id = record.get("item_id")
    if not isinstance(item_id, str) or not item_id:
        raise CorpusValidationError(str(item_id), "item_id", "must be a non-empty string")

    grade = _require(record, item_id, "grade")
    if grade not in VALID_GRADES:
        raise CorpusValidationError(item_id, "grade", f"grade {grade!r} not in {VALID_GRADES}")

    raw_area = _require(record, item_id, "content_area")
    try:
        area = parse_content_area(str(raw_area))
    except ValueError as exc:
        raise CorpusValidationError(item_id, "content_area", str(exc)) from None

    difficulty = _require(record, item_id, "difficulty")
    if difficulty not in DIFFICULTY_LABELS:
        raise CorpusValidationError(
            item_id, "difficulty", f"{difficulty!r} not in {DIFFICULTY_LABELS}"
        )

    stem = _require(record, item_id, "stem")
    if not isinstance(stem, str) or not stem.strip():
        raise CorpusValidationError(item_id, "stem", "must be non-empty text")

    raw_choices = _require(record, item_id, "choices")
    if not isinstance(raw_choices, list) or not (4 <= len(raw_choices) <= 5):
        raise CorpusValidationError(item_id, "choices", "need 4 or 5 answer choices")
    choices = []
    for pos, entry in enumerate(raw_choices):
        if not isinstance(entry, dict) or "letter" not in entry or "text" not in entry:
            raise CorpusValidationError(
                item_id, "choices", f"choice #{pos} must be an object with letter and text"
            )
        choices.append((str(entry["letter"]), str(entry["text"])))
    letters = [letter for letter, _ in choices]
    expected = [chr(ord("A") + i) for i in range(len(letters))]
    if letters != expected:
        raise CorpusValidationError(
            item_id,
            "choices",
            f"letters must be consecutive from A (got {letters}, expected {expected})",
        )

    correct_key = _require(record, item_id, "correct_key")
    if correct_key not in letters:
        raise CorpusValidationError(
            item_id, "correct_key", f"correct key {correct_key!r} absent from choices {letters}"
        )

    rate = _require(record, item_id, "real_percent_correct")
    if not isinstance(rate, (int, float)) or not (0.0 <= float(rate) <= 1.0):
        raise CorpusValidationError(
            item_id, "real_percent_correct", f"must be a fraction in [0,1], got {rate!r}"
        )

    distribution = record.get("real_choice_distribution")
    if distribution is not None:
        if not isinstance(distribution, dict):
            raise CorpusValidationError(
                item_id, "real_choice_distribution", "must be a letter -> fraction map"
            )
        unknown = set(distribution) - set(letters)
        if unknown:
            raise CorpusValidationError(
                item_id, "real_choice_distribution", f"letters {sorted(unknown)} not among choices"
            )
        if correct_key not in distribution:
            raise CorpusValidationError(
                item_id, "real_choice_distribution", f"missing correct key {correct_key!r}"
            )
        values = {k: float(v) for k, v in distribution.items()}
        if any(v < 0.0 for v in values.values()):
            raise CorpusValidationError(
                item_id, "real_choice_distribution", "fractions must be non-negative"
            )
        total = sum(values.values())
        # NAEP tables round per-choice fractions; absorb that, reject worse.
        if not (0.99 <= total <= 1.01):
            raise CorpusValidationError(
                item_id,
                "real_choice_distribution",
                f"fractions sum to {total:.4f}, outside [0.99, 1.01]",
            )
        distribution = {k: v / total for k, v in values.items()}

    subgroups = record.get("real_subgroup_percent_correct")
    if subgroups is not None:
        if not isinstance(subgroups, dict):
            raise CorpusValidationError(
                item_id, "real_subgroup_percent_correct", "must be a name -> fraction map"
            )
        for name, value in subgroups.items():
            if not isinstance(value, (int, float)) or not (0.0 <= float(value) <= 1.0):
                raise CorpusValidationError(
                    item_id,
                    "real_subgroup_percent_correct",
                    f"subgroup {name!r} value {value!r} not a fraction in [0,1]",
                )
        subgroups = {str(k): float(v) for k, v in subgroups.items()}

    extra = {k: v for k, v in record.items() if k not in _KNOWN_FIELDS}

    return Item(
        item_id=item_id,
        grade=int(grade),
        content_area=area,
        difficulty_label=str(difficulty),
        stem=stem,
        choices=tuple(choices),
        correct_key=str(correct_key),
        real_percent_correct=float(rate),
        real_choice_distribution=distribution,
        real_subgroup_percent_correct=subgroups,
        extra=extra,
    )


def parse_corpus_records(records: Iterable[dict]) -> Corpus:
    """Validate already-decoded item records into a corpus."""
    return Corpus(_validate_item(record) for record in records)


def load_corpus(path: str | Path) -> Corpus:
    """Load and validate a corpus file.

    Raises CorpusParseError for malformed JSON (with line context) and
    CorpusValidationError for the first invariant violation found.
    """
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CorpusParseError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(raw, list):
        raise CorpusParseError(f"{path}: corpus must be a JSON array of item records")
    return parse_corpus_records(raw)


def item_to_record(item: Item) -> dict:
    record = {
        "item_id": item.item_id,
        "grade": item.grade,
        "content_area": item.content_area.value,
        "difficulty": item.difficulty_label,
        "stem": item.stem,
        "choices": [{"letter": letter, "text": text} for letter, text in item.choices],
        "correct_key": item.correct_key,
        "real_percent_correct": item.real_percent_correct,
    }
    if item.real_choice_distribution is not None:
        record["real_choice_distribution"] = dict(item.real_choice_distribution)
    if item.real_subgroup_percent_correct is not None:
        record["real_subgroup_percent_correct"] = dict(item.real_subgroup_percent_correct)
    record.update(item.extra)
    return record


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write the corpus back out in canonical form (load/save round-trips)."""
    payload = [item_to_record(item) for item in corpus]
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=False), encoding="utf-8")


def filter_corpus(corpus: Corpus, grade: int) -> Corpus:
    """The items of one grade, in corpus order."""
    if grade not in VALID_GRADES:
        raise ValueError(f"unknown grade {grade!r}")
    return Corpus(item for item in corpus if item.grade == grade)
