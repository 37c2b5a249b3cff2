"""Deterministic classroom sampling.

A classroom is a list of student profiles: a skill-level composition
apportioned from a weight distribution, plus an identity per student
according to the configured identifier strategy. Sampling is a pure
function of (n, grade, distribution, strategy, seed).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from importlib import resources
from typing import Optional, Union

from .rng import SplitMix64, derive_seed


class SkillLevel(str, Enum):
    BELOW_BASIC = "BelowBasic"
    BASIC = "Basic"
    PROFICIENT = "Proficient"
    ADVANCED = "Advanced"

    @property
    def display_name(self) -> str:
        return {
            SkillLevel.BELOW_BASIC: "Below Basic",
            SkillLevel.BASIC: "Basic",
            SkillLevel.PROFICIENT: "Proficient",
            SkillLevel.ADVANCED: "Advanced",
        }[self]


SKILL_ORDER: tuple[SkillLevel, ...] = tuple(SkillLevel)

GENDERS = ("female", "male")
RACES = ("Asian", "Black", "Hispanic", "White")

STUDENT_ID_SPACE = 1_000_000  # six digit ids, 000000 through 999999


@dataclass(frozen=True)
class SkillDistribution:
    """Weights over the four skill levels; must sum to 1."""

    weights: dict[SkillLevel, float]

    def __post_init__(self):
        if set(self.weights) != set(SKILL_ORDER):
            raise ValueError("distribution must cover exactly the four skill levels")
        if any(w < 0 for w in self.weights.values()):
            raise ValueError("skill weights must be non-negative")
        total = sum(self.weights.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"skill weights must sum to 1 (got {total!r})")

    @classmethod
    def default(cls) -> "SkillDistribution":
        # large Basic cohort, balanced BelowBasic/Proficient, small Advanced
        return cls(
            {
                SkillLevel.BELOW_BASIC: 0.25,
                SkillLevel.BASIC: 0.35,
                SkillLevel.PROFICIENT: 0.25,
                SkillLevel.ADVANCED: 0.15,
            }
        )

    @classmethod
    def from_mapping(cls, raw: dict) -> "SkillDistribution":
        weights = {SkillLevel(str(k)): float(v) for k, v in raw.items()}
        return cls(weights)

    def as_mapping(self) -> dict[str, float]:
        return {level.value: self.weights[level] for level in SKILL_ORDER}


@dataclass(frozen=True)
class NameRecord:
    name: str
    gender: str
    race: str


@dataclass(frozen=True)
class NoIdentifier:
    kind = "none"


@dataclass(frozen=True)
class StudentIds:
    kind = "ids"


@dataclass(frozen=True)
class SingleName:
    name: str
    kind = "single"


@dataclass(frozen=True)
class DiverseNames:
    pool: tuple[NameRecord, ...]
    kind = "diverse"

    def __post_init__(self):
        if not self.pool:
            raise ValueError("diverse-names pool must be non-empty")


IdentifierStrategy = Union[NoIdentifier, StudentIds, SingleName, DiverseNames]


@dataclass(frozen=True)
class StudentProfile:
    student_index: int
    grade: int
    skill: SkillLevel
    identity: Optional[str]
    identity_kind: str
    name_demographics: Optional[tuple[str, str]] = None  # (gender, race)


def load_name_pool() -> tuple[NameRecord, ...]:
    """Read the packaged 48-name pool, validated strictly: 8 gender-by-race
    cells of 6 unique names each."""
    text = resources.files("classim.data").joinpath("names.json").read_text("utf-8")
    raw = json.loads(text)
    pool = tuple(NameRecord(str(r["name"]), str(r["gender"]), str(r["race"])) for r in raw)
    names = [r.name for r in pool]
    if len(set(names)) != len(names):
        raise ValueError("name pool contains duplicate names")
    for record in pool:
        if record.gender not in GENDERS:
            raise ValueError(f"unknown gender {record.gender!r} for name {record.name!r}")
        if record.race not in RACES:
            raise ValueError(f"unknown race {record.race!r} for name {record.name!r}")
    cells: dict[tuple[str, str], int] = {}
    for record in pool:
        cells[(record.race, record.gender)] = cells.get((record.race, record.gender), 0) + 1
    if len(cells) != 8 or any(count != 6 for count in cells.values()):
        raise ValueError("packaged name pool must hold 6 names per race-gender cell")
    return pool


def allocate_counts(n: int, dist: SkillDistribution) -> dict[SkillLevel, int]:
    """Largest-remainder apportionment of n seats over the skill weights.

    Quotas are computed in exact rational arithmetic (weights snapped to
    the nearest short fraction) so remainder ties resolve by skill order
    rather than by floating-point noise.
    """
    if n < 1:
        raise ValueError("classroom size must be at least 1")
    quotas = {
        level: n * Fraction(dist.weights[level]).limit_denominator(10**9)
        for level in SKILL_ORDER
    }
    counts = {level: int(quotas[level]) for level in SKILL_ORDER}
    leftover = n - sum(counts.values())
    if leftover < 0 or leftover > len(SKILL_ORDER):
        raise ValueError("skill weights are inconsistent with a total of 1")
    by_remainder = sorted(
        SKILL_ORDER,
        key=lambda level: (-(quotas[level] - counts[level]), SKILL_ORDER.index(level)),
    )
    for level in by_remainder[:leftover]:
        counts[level] += 1
    return counts


def _assign_student_ids(n: int, rng: SplitMix64) -> list[str]:
    if n > STUDENT_ID_SPACE:
        raise ValueError(f"classroom size {n} exceeds the {STUDENT_ID_SPACE} unique-id space")
    numbers = rng.sample_without_replacement(STUDENT_ID_SPACE, n)
    return [f"STU{number:06d}" for number in numbers]


def _assign_diverse_names(n: int, strategy: DiverseNames, rng: SplitMix64) -> list[NameRecord]:
    by_cell: dict[tuple[str, str], list[NameRecord]] = {}
    for record in strategy.pool:
        by_cell.setdefault((record.race, record.gender), []).append(record)
    cells = sorted(by_cell)
    rng.shuffle(cells)
    for cell in cells:
        rng.shuffle(by_cell[cell])
    # cycle the cells so usage counts stay within 1 of each other, and
    # cycle within each cell so names repeat only once a cell is exhausted
    assigned = []
    for k in range(n):
        cell = cells[k % len(cells)]
        names = by_cell[cell]
        assigned.append(names[(k // len(cells)) % len(names)])
    return assigned


def sample_classroom(
    n: int,
    grade: int,
    dist: SkillDistribution,
    strategy: IdentifierStrategy,
    seed: int,
) -> list[StudentProfile]:
    """Sample n student profiles deterministically.

    Students are indexed 0..n-1 and grouped by skill level in canonical
    order; identities are drawn from a stream derived from the seed so the
    same call always yields the same roster.
    """
    counts = allocate_counts(n, dist)
    skills: list[SkillLevel] = []
    for level in SKILL_ORDER:
        skills.extend([level] * counts[level])

    identities: list[Optional[str]] = [None] * n
    demographics: list[Optional[tuple[str, str]]] = [None] * n
    if isinstance(strategy, StudentIds):
        rng = SplitMix64(derive_seed(seed, "student-ids"))
        identities = list(_assign_student_ids(n, rng))
    elif isinstance(strategy, SingleName):
        identities = [strategy.name] * n
    elif isinstance(strategy, DiverseNames):
        rng = SplitMix64(derive_seed(seed, "diverse-names"))
        records = _assign_diverse_names(n, strategy, rng)
        identities = [r.name for r in records]
        demographics = [(r.gender, r.race) for r in records]
    elif not isinstance(strategy, NoIdentifier):
        raise TypeError(f"unknown identifier strategy {strategy!r}")

    return [
        StudentProfile(
            student_index=index,
            grade=grade,
            skill=skills[index],
            identity=identities[index],
            identity_kind=strategy.kind,
            name_demographics=demographics[index],
        )
        for index in range(n)
    ]


def strategy_from_spec(spec: str) -> IdentifierStrategy:
    """Parse a strategy spec string: none | ids | single:<name> | diverse."""
    if spec == "none":
        return NoIdentifier()
    if spec == "ids":
        return StudentIds()
    if spec.startswith("single:"):
        name = spec.split(":", 1)[1]
        if not name:
            raise ValueError("single-name strategy needs a name, e.g. single:Tameka")
        return SingleName(name)
    if spec == "diverse":
        return DiverseNames(pool=load_name_pool())
    raise ValueError(f"unknown identifier strategy {spec!r}")
