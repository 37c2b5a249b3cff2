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
from typing import Dict, Mapping, Tuple

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


@dataclass(frozen=True)
class RenderedPrompt:
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
    """The full template set, loaded once and treated as immutable."""

    texts: Mapping[str, str] = field(repr=False)

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


def _student_system_template(profile: StudentProfile) -> str:
    if profile.identity_kind == "none":
        return "system_student.txt"
    if profile.identity_kind == "ids":
        return "system_student_id.txt"
    # Single shared name and diverse rosters use the same named wording.
    return "system_student_named.txt"


def render_knowledge_prompt(item: Item, templates: PromptTemplates) -> RenderedPrompt:
    system = _check_complete(templates.text("system_knowledge.txt").strip(), "system")
    user = _substitute(
        templates.text("user_question_answer_key.txt").strip(),
        {"{stem}": item.stem, "{choices}": format_choices(item)},
    )
    return RenderedPrompt(
        system=system,
        user=_check_complete(user, "user"),
        kind=PromptKind.KNOWLEDGE,
    )


def render_direct_percentage_prompt(
    item: Item, templates: PromptTemplates
) -> RenderedPrompt:
    system = _substitute(
        templates.text("system_direct_percentage.txt").strip(),
        {"{grade}": str(item.grade)},
    )
    user = _substitute(
        templates.text("user_question_percentage.txt").strip(),
        {"{stem}": item.stem, "{choices}": format_choices(item)},
    )
    return RenderedPrompt(
        system=_check_complete(system, "system"),
        user=_check_complete(user, "user"),
        kind=PromptKind.DIRECT_PERCENTAGE,
    )


def render_student_prompt(
    item: Item, profile: StudentProfile, templates: PromptTemplates
) -> RenderedPrompt:
    """Role-play prompt for one (student, item) pair: the persona's skill
    and identity come from the profile, its grade and content area from
    the item."""
    mapping = {
        "{grade}": str(item.grade),
        "{skill level}": profile.skill.display_name,
        "{content area of problem}": item.content_area.display_name,
        "{Definition of skill level continues}": templates.skill_description(
            profile.skill
        ),
    }
    if profile.identity_kind == "ids":
        if profile.identity is None:
            raise PromptError("id roster produced a student without an identifier")
        mapping["[STDID]"] = profile.identity
    elif profile.identity_kind in ("single", "diverse"):
        if profile.identity is None:
            raise PromptError("named roster produced a student without a name")
        mapping["[NAME]"] = profile.identity
    system = _substitute(
        templates.text(_student_system_template(profile)).strip(), mapping
    )
    user = _substitute(
        templates.text("user_question_json.txt").strip(),
        {"{stem}": item.stem, "{choices}": format_choices(item)},
    )
    return RenderedPrompt(
        system=_check_complete(system, "system"),
        user=_check_complete(user, "user"),
        kind=PromptKind.STUDENT,
    )
