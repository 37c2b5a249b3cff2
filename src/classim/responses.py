"""Turning raw model text into graded, loggable observations.

Replies arrive in three shapes that degrade gracefully: a JSON object
with an answer-key field (the instructed format for role-play), a marker
line like ``Answer Key: C`` (the instructed format for expert solves),
and as a last resort a bare choice letter on the final line. Anything
else is a failed parse and is graded as incorrect rather than dropped,
so a model that stops cooperating shows up as a score change, not as
missing data, unless the caller explicitly masks failures out.
"""

from __future__ import annotations

import ast
import itertools
import json
import os
import re
import sys
from array import array
from dataclasses import dataclass
from enum import Enum
from typing import (
    Dict, Iterable, Iterator, List, Mapping, NamedTuple, Optional, Sequence, Tuple,
    get_type_hints,
)

import numpy as np

from .corpus import Item, check_kind, json_kinds
from .gateway import RequestKey

ANSWER_KEY_FIELD = re.compile(r"^answer[\s_]*key$", re.IGNORECASE)

# Covers both the plain marker line and answer-key fields inside JSON too
# broken for any parser; the final occurrence wins so corrections count.
# The captured letter is optional so an explicitly empty answer commits
# this route instead of falling through to weaker ones.
_ANSWER_KEY_RE = re.compile(
    r"[\"']?answer[\s_]*key[\"']?\s*[:=]\s*[\"'\(\[]*\s*([A-Za-z]?)", re.IGNORECASE
)
_PERCENT_MARKER_RE = re.compile(
    r"percentage\s*correct\s*:\s*\[?\s*(\d+(?:\.\d+)?)\s*%?", re.IGNORECASE
)
_OBJECT_SPAN_RE = re.compile(r"\{[^{}]*\}", re.DOTALL)
_LETTER_LINE_RE = re.compile(r"^[\s\(\[]*([A-Za-z])[\s\)\]\.:,]*$")

# Request rows that do not belong to a simulated student (expert solves,
# percentage estimates) carry this index so keys stay totally ordered.
NO_STUDENT = -1


class ParseStatus(str, Enum):
    PARSED = "parsed"
    RECOVERED = "recovered"
    FAILED = "failed"


class ParsedAnswer(NamedTuple):
    chosen: Optional[str]
    status: ParseStatus


def _clean_letter(raw: object) -> Optional[str]:
    if not isinstance(raw, str):
        return None
    stripped = raw.strip().strip("()[].:,\"' ")
    if len(stripped) == 1 and stripped.isalpha():
        return stripped.upper()
    return None


def _answer_from_mapping(obj: object) -> Tuple[bool, Optional[str]]:
    """(found a key, raw value) for the answer-key field of a dict."""
    if not isinstance(obj, dict):
        return False, None
    found = False
    value: Optional[object] = None
    for key, val in obj.items():
        if isinstance(key, str) and ANSWER_KEY_FIELD.match(key.strip()):
            found = True
            value = val  # later duplicates overwrite earlier ones
    if not found:
        return False, None
    return True, value if isinstance(value, str) else None


def _decode(text: str) -> object:
    """``text`` as JSON, else as a Python literal, else None, catching what
    either loader raises on text it cannot decode, however deeply nested."""
    for loader in (json.loads, ast.literal_eval):
        try:
            return loader(text)
        except (ValueError, SyntaxError, TypeError, MemoryError, RecursionError):
            pass
    return None


def _json_candidates(text: str) -> Iterator[object]:
    yield _decode(text.strip())
    # Scan embedded object spans, last span first so corrections win.
    for match in reversed(list(_OBJECT_SPAN_RE.finditer(text))):
        yield _decode(match.group(0))


def parse_answer(text: str, valid_letters: Sequence[str]) -> ParsedAnswer:
    """Extract a choice letter from one reply.

    The first route that commits to a candidate decides the outcome: a
    candidate outside ``valid_letters`` (or an explicitly empty answer)
    is a failure, not an invitation to keep scanning, because the model
    did state an answer and it was wrong in kind.
    """
    valid = {letter.upper() for letter in valid_letters}

    for obj in _json_candidates(text):
        found, raw_value = _answer_from_mapping(obj)
        if not found:
            continue
        letter = _clean_letter(raw_value)
        if letter in valid:
            return ParsedAnswer(chosen=letter, status=ParseStatus.PARSED)
        return ParsedAnswer(chosen=None, status=ParseStatus.FAILED)

    field_matches = list(_ANSWER_KEY_RE.finditer(text))
    if field_matches:
        letter = _clean_letter(field_matches[-1].group(1))
        if letter in valid:
            return ParsedAnswer(chosen=letter, status=ParseStatus.PARSED)
        return ParsedAnswer(chosen=None, status=ParseStatus.FAILED)

    for line in reversed(text.splitlines()):
        if not line.strip():
            continue
        match = _LETTER_LINE_RE.match(line.strip())
        if match:
            letter = match.group(1).upper()
            if letter in valid:
                return ParsedAnswer(chosen=letter, status=ParseStatus.RECOVERED)
        break
    return ParsedAnswer(chosen=None, status=ParseStatus.FAILED)


def parse_percentage(text: str) -> Optional[float]:
    """Fraction in [0, 1] from the last percentage marker, or None."""
    matches = list(_PERCENT_MARKER_RE.finditer(text))
    if not matches:
        return None
    value = float(matches[-1].group(1))
    return min(max(value, 0.0), 100.0) / 100.0


def grade(chosen: Optional[str], correct_key: str) -> int:
    return 1 if chosen is not None and chosen == correct_key else 0


class SimulatedResponse(NamedTuple):
    """One graded reply; the unit stored in the run log."""

    item_id: str
    student_index: int
    replicate: int
    skill: str
    raw: str
    chosen: Optional[str]
    correct: int
    parse_status: str

    @classmethod
    def from_record(cls, record: object) -> "SimulatedResponse":
        """The response one log record holds; a ValueError naming the field
        unless the record is an object with every field of its type and domain."""
        if not isinstance(record, dict):
            raise ValueError(f"response record must be an object, got {record!r}")
        values = [record.get(name, _MISSING) for name in _RECORD_TYPES]
        _, student, replicate, _, _, _, correct, status = values
        # the row test first, so the domain tests see exact ints
        if tuple(map(type, values)) not in _RECORD_ROWS or not (
            student in _STUDENTS and replicate in _REPLICATES and (correct, status) in _GRADED
        ):
            for (name, kinds), value in zip(_RECORD_TYPES.items(), values):
                if value is _MISSING:
                    raise ValueError(f"response record is missing field {name!r}")
                check_kind(f"response field {name!r}", value, kinds)
                domain, rule = _RECORD_DOMAINS.get(name, ((value,), ""))
                if value not in domain:
                    raise ValueError(f"response field {name!r} must be {rule}, got {value!r}")
        return cls(*values)

    @property
    def key(self) -> RequestKey:
        return RequestKey(self.item_id, self.student_index, self.replicate)


# The JSON types of a log record's fields, in field order, read off
# SimulatedResponse's hints; matched exactly, so that true is not an int.
_MISSING = object()
_RECORD_TYPES: Dict[str, Tuple[type, ...]] = {
    name: json_kinds(hint) for name, hint in get_type_hints(SimulatedResponse).items()
}
# Every valid row of field types, so a good record costs one set lookup.
_RECORD_ROWS = set(itertools.product(*_RECORD_TYPES.values()))
# The values a bounded field may hold; the ranges end where the number rule does.
_STUDENTS = range(NO_STUDENT, int(sys.float_info.max) + 1)
_REPLICATES = range(int(sys.float_info.max) + 1)
_STATUSES = [status.value for status in ParseStatus]
_GRADED = set(itertools.product((0, 1), _STATUSES))  # (correct, parse_status)
_RECORD_DOMAINS = {  # field: (its domain, as its error states it)
    "student_index": (_STUDENTS, f"at least {NO_STUDENT}"),
    "replicate": (_REPLICATES, "at least 0"),
    "correct": ((0, 1), "0 or 1"),
    "parse_status": (_STATUSES, f"one of {_STATUSES}"),
}


def grade_disagreement(response: SimulatedResponse, item: Item) -> Optional[str]:
    """Why ``response`` is not graded as classim grades a reply to ``item``
    (a failed parse holds no letter, a letter is one of the item's, and
    ``correct`` is :func:`grade` of its letter), or None when it is."""
    chosen = response.chosen
    if chosen is not None and response.parse_status == ParseStatus.FAILED:
        problem = f"is a failed parse holding letter {chosen!r}"
    elif chosen is not None and chosen not in item.choice_letters:
        problem = (
            f"disagrees with the corpus: it chose {chosen!r}, but the corpus "
            f"gives item {item.item_id!r} the letters {list(item.choice_letters)}"
        )
    elif response.correct != grade(chosen, item.correct_key):
        problem = (
            f"disagrees with the corpus: it chose {chosen!r} and is graded "
            f"{response.correct}, but the corpus key of item {item.item_id!r} is "
            f"{item.correct_key!r}"
        )
    else:
        return None
    return f"reply {tuple(response.key)} {problem}"


# json.dumps builds a new encoder per call for any non-default option
_LINE_ENCODER = json.JSONEncoder(ensure_ascii=False)


def response_line(response: SimulatedResponse) -> str:
    """One log line, as ``json.dumps(response._asdict(), ensure_ascii=False)``:
    an object with the fields in declaration order, not the tuple's array."""
    return _LINE_ENCODER.encode(response._asdict())


class ResponseLog:
    """Append-only JSONL store for one run, safe to resume.

    A killed process can leave a torn final line; :meth:`open_resumable`
    truncates the file back to the last complete line before reading, so
    a resumed run that continues its plan after the repaired log's records
    writes a file byte-identical to an uninterrupted one, provided the
    writer appends records in a deterministic order.
    """

    def __init__(self, path: str) -> None:
        self.path = path

    def records(self, items: Mapping[str, Item]) -> Iterator[SimulatedResponse]:
        """Each record in file order, one per file line, read as it is
        consumed; a ValueError naming the file line, once it is reached,
        unless that line (blank, torn, non-UTF-8 and too deeply nested ones
        included) is one record, with no :func:`grade_disagreement` if its
        item is in ``items``. The file closes when the iterator is
        exhausted or dropped."""
        # as bytes, only b"\n" ends a line: a raw reply may hold U+2028,
        # which str.splitlines would break on
        with open(self.path, "rb") as handle:
            for lineno, line in enumerate(handle, start=1):
                try:
                    record = json.loads(line.decode("utf-8"))
                    response = SimulatedResponse.from_record(record)
                except (ValueError, RecursionError) as exc:  # UnicodeDecodeError too
                    raise ValueError(
                        f"{self.path}:{lineno}: corrupt response line: {exc}"
                    ) from None
                item = items.get(response.item_id)
                problem = None if item is None else grade_disagreement(response, item)
                if problem is not None:
                    raise ValueError(f"{self.path}:{lineno}: {problem}")
                yield response

    def read_all(self, items: Mapping[str, Item]) -> List[SimulatedResponse]:
        """Every record of :meth:`records`, in one list."""
        return list(self.records(items))

    def open_resumable(self, items: Mapping[str, Item]) -> List[SimulatedResponse]:
        """:meth:`read_all` after cutting a torn final line off, or creating an empty log."""
        with open(self.path, "ab+") as handle:
            handle.seek(0)
            blob = handle.read()
            if blob and not blob.endswith(b"\n"):
                handle.truncate(blob.rfind(b"\n") + 1)
        return self.read_all(items)

    def append_batch(self, responses: Sequence[SimulatedResponse]) -> None:
        if not responses:
            return
        payload = "".join(response_line(r) + "\n" for r in responses)
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())


@dataclass(frozen=True)
class ResponseMatrix:
    """Students x items scored 0/1, with an observed-cell mask.

    ``data`` is int8; masked-out cells hold 0 but carry no weight in any
    consumer that honors ``mask``. ``skills`` gives each row's skill label.
    """

    item_ids: Tuple[str, ...]
    student_indices: Tuple[int, ...]
    skills: Tuple[str, ...]
    data: np.ndarray
    mask: np.ndarray

    def __post_init__(self) -> None:
        expected = (len(self.student_indices), len(self.item_ids))
        if self.data.shape != expected or self.mask.shape != expected:
            raise ValueError("matrix shape does not match its labels")
        if len(self.skills) != len(self.student_indices):
            raise ValueError("one skill label per student row is required")

    @property
    def n_students(self) -> int:
        return len(self.student_indices)

    @property
    def n_items(self) -> int:
        return len(self.item_ids)

    def group_counts(self, members: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(observed, correct) cells per (group, item), exact integers in
        float64; row g of ``members`` marks the student rows of group g, and
        groups may overlap."""
        weight = np.asarray(members, dtype=float)
        return weight @ self.mask, weight @ (self.data * self.mask)

    def item_success_rates(self) -> np.ndarray:
        """Observed fraction correct per item; NaN for fully masked columns."""
        [observed], [correct] = self.group_counts(np.ones((1, self.n_students)))
        with np.errstate(invalid="ignore"):
            return np.where(observed > 0, correct / np.maximum(observed, 1), np.nan)


def build_matrix(
    responses: Iterable[SimulatedResponse],
    item_ids: Sequence[str],
    mask_failed: bool = False,
) -> ResponseMatrix:
    """Collapse graded replies into a binary matrix.

    Replicates of one (student, item) cell collapse by majority vote on
    the graded score, with an exact tie scored 0: a student who is right
    only half the time has not reliably answered the item. Failed parses
    count as incorrect unless ``mask_failed`` hides those cells entirely.
    A counted reply graded other than 0 or 1 is a ValueError.
    """
    column: Dict[str, int] = {item_id: j for j, item_id in enumerate(item_ids)}
    width = len(column)
    # student index -> (row in order of first appearance, skill)
    seen: Dict[int, Tuple[int, str]] = {}
    cells = array("q")  # the cell of every counted reply, row-major
    ones = array("q")  # the cells of the replies graded 1
    failed = ParseStatus.FAILED.value
    for response in responses:
        j = column.get(response.item_id)
        if j is None or (mask_failed and response.parse_status == failed):
            continue
        student = seen.get(response.student_index)
        if student is None:
            student = seen[response.student_index] = (len(seen), response.skill)
        elif student[1] != response.skill:
            raise ValueError(
                f"student {response.student_index} appears with skills "
                f"{student[1]!r} and {response.skill!r}"
            )
        cell = student[0] * width + j
        cells.append(cell)
        if response.correct == 1:
            ones.append(cell)
        elif response.correct != 0:
            raise ValueError(f"reply {tuple(response.key)} is graded {response.correct!r}")
    size = len(seen) * width
    counts = np.bincount(np.frombuffer(cells, dtype=np.int64), minlength=size)
    scores = np.bincount(np.frombuffer(ones, dtype=np.int64), minlength=size)
    majority = 2 * scores > counts
    students = tuple(sorted(seen))
    rows = [seen[student_index][0] for student_index in students]
    return ResponseMatrix(
        item_ids=tuple(item_ids),
        student_indices=students,
        skills=tuple(seen[student_index][1] for student_index in students),
        data=majority.reshape(len(seen), width)[rows].astype(np.int8),
        mask=(counts > 0).reshape(len(seen), width)[rows],
    )


def direct_estimates(
    parsed: Iterable[Tuple[str, Optional[float]]], item_ids: Sequence[str]
) -> Dict[str, Optional[float]]:
    """Per-item mean of parsed percentage fractions; None when every
    replicate failed to state one."""
    sums: Dict[str, float] = {item_id: 0.0 for item_id in item_ids}
    counts: Dict[str, int] = {item_id: 0 for item_id in item_ids}
    for item_id, value in parsed:
        if item_id not in sums or value is None:
            continue
        sums[item_id] += value
        counts[item_id] += 1
    return {
        item_id: (sums[item_id] / counts[item_id] if counts[item_id] else None)
        for item_id in item_ids
    }
