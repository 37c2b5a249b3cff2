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
from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

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


class ParseStatus(str, Enum):
    PARSED = "parsed"
    RECOVERED = "recovered"
    FAILED = "failed"


@dataclass(frozen=True)
class ParsedAnswer:
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


def _json_candidates(text: str) -> Iterable[object]:
    stripped = text.strip()
    for loader in (json.loads, ast.literal_eval):
        try:
            yield loader(stripped)
            break
        except (ValueError, SyntaxError, TypeError):
            continue
    # Scan embedded object spans, last span first so corrections win.
    for match in reversed(list(_OBJECT_SPAN_RE.finditer(text))):
        span = match.group(0)
        for loader in (json.loads, ast.literal_eval):
            try:
                yield loader(span)
                break
            except (ValueError, SyntaxError, TypeError):
                continue


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


@dataclass(frozen=True)
class SimulatedResponse:
    """One graded reply; the unit stored in the run log."""

    item_id: str
    student_index: int
    replicate: int
    skill: str
    raw: str
    chosen: Optional[str]
    correct: int
    parse_status: str

    def to_record(self) -> Dict[str, object]:
        # the fields in declaration order; asdict is ~20x slower per reply
        return dict(vars(self))

    @classmethod
    def from_record(cls, record: object) -> "SimulatedResponse":
        """The response one log record holds; a ValueError naming the field
        unless the record is an object with every field, each of its type."""
        if not isinstance(record, dict):
            raise ValueError(f"response record must be an object, got {record!r}")
        values = [record.get(name, _MISSING) for name in _RECORD_TYPES]
        if tuple(map(type, values)) not in _RECORD_ROWS:
            for (name, kinds), value in zip(_RECORD_TYPES.items(), values):
                if value is _MISSING:
                    raise ValueError(f"response record is missing field {name!r}")
                if type(value) not in kinds:
                    expected = " or ".join(
                        "null" if kind is type(None) else kind.__name__ for kind in kinds
                    )
                    raise ValueError(
                        f"response field {name!r} must be {expected}, got {value!r}"
                    )
        return cls(*values)

    @property
    def key(self) -> RequestKey:
        return RequestKey(self.item_id, self.student_index, self.replicate)


# The JSON types of a log record's fields, in field order; matched
# exactly, so that true is not an int.
_MISSING = object()
_RECORD_TYPES: Dict[str, Tuple[type, ...]] = {
    "item_id": (str,),
    "student_index": (int,),
    "replicate": (int,),
    "skill": (str,),
    "raw": (str,),
    "chosen": (str, type(None)),
    "correct": (int,),
    "parse_status": (str,),
}
# Every valid row of field types, so a good record costs one set lookup.
_RECORD_ROWS = set(itertools.product(*_RECORD_TYPES.values()))


def response_line(response: SimulatedResponse) -> str:
    return json.dumps(response.to_record(), ensure_ascii=False)


class ResponseLog:
    """Append-only JSONL store for one run, safe to resume.

    A killed process can leave a torn final line; :meth:`open_resumable`
    truncates the file back to the last complete line before reading, so
    a resumed run re-fetches only what the repaired log is missing and the
    finished file is byte-identical to an uninterrupted one provided the
    writer appends records in a deterministic order.
    """

    def __init__(self, path: str) -> None:
        self.path = path

    def repair(self) -> None:
        if not os.path.exists(self.path):
            return
        with open(self.path, "rb") as handle:
            blob = handle.read()
        if not blob or blob.endswith(b"\n"):
            return
        cut = blob.rfind(b"\n")
        keep = blob[: cut + 1] if cut >= 0 else b""
        with open(self.path, "wb") as handle:
            handle.write(keep)

    def read_all(self) -> List[SimulatedResponse]:
        if not os.path.exists(self.path):
            return []
        responses: List[SimulatedResponse] = []
        with open(self.path, "r", encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    responses.append(SimulatedResponse.from_record(json.loads(line)))
                except ValueError as exc:
                    raise ValueError(
                        f"{self.path}:{lineno}: corrupt response line: {exc}"
                    ) from None
        return responses

    def open_resumable(self) -> Tuple[List[SimulatedResponse], Set[RequestKey]]:
        self.repair()
        responses = self.read_all()
        return responses, {response.key for response in responses}

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

    def item_success_rates(self) -> np.ndarray:
        """Observed fraction correct per item; NaN for fully masked columns."""
        observed = self.mask.sum(axis=0)
        correct = np.where(self.mask, self.data, 0).sum(axis=0)
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
    """
    column: Dict[str, int] = {item_id: j for j, item_id in enumerate(item_ids)}
    votes: Dict[Tuple[int, str], List[int]] = {}
    skills: Dict[int, str] = {}
    for response in responses:
        if response.item_id not in column:
            continue
        if mask_failed and response.parse_status == ParseStatus.FAILED.value:
            continue
        prior = skills.setdefault(response.student_index, response.skill)
        if prior != response.skill:
            raise ValueError(
                f"student {response.student_index} appears with skills "
                f"{prior!r} and {response.skill!r}"
            )
        votes.setdefault((response.student_index, response.item_id), []).append(
            response.correct
        )
    students = tuple(sorted(skills))
    row = {student_index: i for i, student_index in enumerate(students)}
    data = np.zeros((len(students), len(column)), dtype=np.int8)
    mask = np.zeros((len(students), len(column)), dtype=bool)
    for (student_index, item_id), scores in votes.items():
        i, j = row[student_index], column[item_id]
        mask[i, j] = True
        data[i, j] = 1 if sum(scores) * 2 > len(scores) else 0
    return ResponseMatrix(
        item_ids=tuple(item_ids),
        student_indices=students,
        skills=tuple(skills[s] for s in students),
        data=data,
        mask=mask,
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
