"""Prompt construction for the three interrogation modes.

Templates ship as plain text files inside the package, and each run's
manifest records their hashes; rendering is pure string substitution and
therefore byte-reproducible. Placeholders come in two spellings:
``{...}`` slots that are filled from the item or the student profile,
and bracketed identity slots (``[NAME]``, ``[STDID]``) filled from the
roster.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from enum import Enum
from importlib import resources
from typing import Callable, Dict, Hashable, Mapping, NamedTuple, Tuple

from .classroom import SkillLevel, StudentProfile
from .corpus import Item

ANSWER_MARKER = "Answer Key:"
PERCENT_MARKER = "Percentage Correct:"

# Every slot any template is allowed to use. Rendering fails loudly if one
# of these survives substitution, which catches template/profile mismatches
# (e.g. an identity template paired with an anonymous roster).
_KNOWN_SLOTS = (
    "{grade}",
    "{skill level}",
    "{content area of problem}",
    "{Definition of skill level continues}",
    "{stem}",
    "{choices}",
    "[NAME]",
    "[STDID]",
)

_TEMPLATE_FILES = (
    "system_knowledge.txt",
    "system_direct_percentage.txt",
    "system_student.txt",
    "system_student_named.txt",
    "system_student_id.txt",
    "user_question_answer_key.txt",
    "user_question_json.txt",
    "user_question_percentage.txt",
    "skill_below_basic.txt",
    "skill_basic.txt",
    "skill_proficient.txt",
    "skill_advanced.txt",
)

_SKILL_FILES = {
    SkillLevel.BELOW_BASIC: "skill_below_basic.txt",
    SkillLevel.BASIC: "skill_basic.txt",
    SkillLevel.PROFICIENT: "skill_proficient.txt",
    SkillLevel.ADVANCED: "skill_advanced.txt",
}


class PromptKind(str, Enum):
    """What the model is being asked to do."""

    KNOWLEDGE = "knowledge"
    DIRECT_PERCENTAGE = "direct_percentage"
    STUDENT = "student"


class PromptError(ValueError):
    pass


class RenderedPrompt(NamedTuple):
    """A fully substituted chat exchange ready for a completion request."""

    system: str
    user: str
    kind: PromptKind

    def messages(self) -> Tuple[Dict[str, str], ...]:
        return (
            {"role": "system", "content": self.system},
            {"role": "user", "content": self.user},
        )


@dataclass(frozen=True)
class PromptTemplates:
    """The full template set, loaded once and treated as immutable.

    Each instance remembers the messages it has rendered, keyed on the
    inputs they depend on, so a run that loads one set renders each
    distinct message once; another set never reads this set's memo.
    """

    texts: Mapping[str, str] = field(repr=False)
    _rendered: Dict[Tuple[Hashable, ...], str] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    @classmethod
    def load(cls) -> "PromptTemplates":
        """The packaged template set."""
        root = resources.files(__package__) / "prompts"
        return cls(
            texts={
                filename: (root / filename).read_text(encoding="utf-8")
                for filename in _TEMPLATE_FILES
            }
        )

    def text(self, filename: str) -> str:
        try:
            return self.texts[filename]
        except KeyError:
            raise PromptError(f"unknown prompt template {filename!r}") from None

    def skill_description(self, skill: SkillLevel) -> str:
        return self.text(_SKILL_FILES[skill]).strip()

    def fill(
        self, key: Tuple[Hashable, ...], slots: Callable[[], Mapping[str, str]], context: str
    ) -> str:
        """Template file ``key[0]`` stripped, with ``slots()`` substituted and
        every slot checked filled. ``key`` must hold every input the slot
        values depend on: the text is built on the first call per key and
        returned as is after that. A failure is never stored, so it raises
        on every call."""
        text = self._rendered.get(key)
        if text is None:
            text = _check_complete(_substitute(self.text(key[0]).strip(), slots()), context)
            self._rendered[key] = text
        return text

    def fixture_hashes(self) -> Dict[str, str]:
        """sha256 per template file, recorded in run manifests."""
        return {
            name: hashlib.sha256(self.texts[name].encode("utf-8")).hexdigest()
            for name in _TEMPLATE_FILES
        }


def format_choices(item: Item) -> str:
    return "\n".join(f"{letter}. {text}" for letter, text in item.choices)


def _substitute(template: str, mapping: Mapping[str, str]) -> str:
    out = template
    for slot, value in mapping.items():
        out = out.replace(slot, value)
    return out


def _check_complete(rendered: str, context: str) -> str:
    for slot in _KNOWN_SLOTS:
        if slot in rendered:
            raise PromptError(f"unfilled slot {slot!r} in {context} prompt")
    return rendered


# identity kind -> (system template, the identity slot it fills); single
# shared names and diverse rosters use the same named wording
_STUDENT_SYSTEM = {
    "none": ("system_student.txt", None),
    "ids": ("system_student_id.txt", "[STDID]"),
    "single": ("system_student_named.txt", "[NAME]"),
    "diverse": ("system_student_named.txt", "[NAME]"),
}


# prompt kind -> the user template that asks its question
_USER_FILES = {
    PromptKind.KNOWLEDGE: "user_question_answer_key.txt",
    PromptKind.DIRECT_PERCENTAGE: "user_question_percentage.txt",
    PromptKind.STUDENT: "user_question_json.txt",
}


def _render(
    kind: PromptKind,
    item: Item,
    templates: PromptTemplates,
    system_key: Tuple[Hashable, ...],
    system_slots: Callable[[], Mapping[str, str]],
) -> RenderedPrompt:
    """The system message ``system_key`` names, filled from ``system_slots``,
    and the kind's user message filled with the item's stem and choices."""
    system = templates.fill(system_key, system_slots, "system")
    user = templates.fill(
        (_USER_FILES[kind], item.stem, item.choices),
        lambda: {"{stem}": item.stem, "{choices}": format_choices(item)},
        "user",
    )
    return RenderedPrompt(system=system, user=user, kind=kind)


def render_knowledge_prompt(item: Item, templates: PromptTemplates) -> RenderedPrompt:
    return _render(PromptKind.KNOWLEDGE, item, templates, ("system_knowledge.txt",), dict)


def render_direct_percentage_prompt(
    item: Item, templates: PromptTemplates
) -> RenderedPrompt:
    return _render(
        PromptKind.DIRECT_PERCENTAGE,
        item,
        templates,
        ("system_direct_percentage.txt", item.grade),
        lambda: {"{grade}": str(item.grade)},
    )


def render_student_prompt(
    item: Item, profile: StudentProfile, templates: PromptTemplates
) -> RenderedPrompt:
    """Role-play prompt for one (student, item) pair: the persona's skill
    and identity come from the profile, its grade and content area from
    the item. A roster student without the identity its kind needs leaves
    that slot unfilled, which is a PromptError."""
    system_file, identity_slot = _STUDENT_SYSTEM[profile.identity_kind]

    def slots() -> Dict[str, str]:
        values = {
            "{grade}": str(item.grade),
            "{skill level}": profile.skill.display_name,
            "{content area of problem}": item.content_area.display_name,
            "{Definition of skill level continues}": templates.skill_description(
                profile.skill
            ),
        }
        if identity_slot is not None and profile.identity is not None:
            values[identity_slot] = profile.identity
        return values

    system_key = (system_file, profile.identity, profile.skill, item.grade, item.content_area)
    return _render(PromptKind.STUDENT, item, templates, system_key, slots)
