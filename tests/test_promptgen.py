import hashlib

import pytest

from classim.classroom import (
    SkillDistribution,
    sample_classroom,
)
from classim.corpus import load_corpus
from classim.promptgen import (
    ANSWER_MARKER,
    PERCENT_MARKER,
    PromptError,
    PromptKind,
    PromptTemplates,
    format_choices,
    render_direct_percentage_prompt,
    render_knowledge_prompt,
    render_student_prompt,
)
from conftest import make_item_record, write_corpus

SLOT_TOKENS = (
    "{grade}",
    "{skill level}",
    "{content area of problem}",
    "{Definition of skill level continues}",
    "{stem}",
    "{choices}",
    "[NAME]",
    "[STDID]",
)


@pytest.fixture
def item(tmp_path):
    path = write_corpus(tmp_path / "c.json", [make_item_record(3, grade=4)])
    return load_corpus(path).items[0]


@pytest.fixture
def templates():
    return PromptTemplates.load()


def roster_one(strategy, seed=11):
    return sample_classroom(8, SkillDistribution.default(), strategy, seed)[0]


def assert_no_leftover_slots(text):
    for token in SLOT_TOKENS:
        assert token not in text


def test_packaged_templates_complete(templates):
    hashes = templates.fixture_hashes()
    assert len(hashes) == 12
    assert all(len(h) == 64 for h in hashes.values())


def test_choice_formatting(item):
    block = format_choices(item)
    lines = block.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("A. ")
    assert lines[3].startswith("D. ")


def test_knowledge_prompt(item, templates):
    prompt = render_knowledge_prompt(item, templates)
    assert prompt.kind is PromptKind.KNOWLEDGE
    assert ANSWER_MARKER in prompt.system
    assert item.stem in prompt.user
    assert_no_leftover_slots(prompt.system)
    assert_no_leftover_slots(prompt.user)


def test_percentage_prompt_uses_item_grade(item, templates):
    prompt = render_direct_percentage_prompt(item, templates)
    assert prompt.kind is PromptKind.DIRECT_PERCENTAGE
    assert "4th-grade" in prompt.system
    assert PERCENT_MARKER in prompt.system
    assert_no_leftover_slots(prompt.system)


def test_student_prompt_anonymous(item, templates):
    profile = roster_one("none")
    prompt = render_student_prompt(item, profile, templates)
    assert prompt.kind is PromptKind.STUDENT
    assert profile.skill.display_name in prompt.system
    assert item.content_area.display_name in prompt.system
    assert "4th grade" in prompt.system
    assert '"answer key"' in prompt.user
    assert_no_leftover_slots(prompt.system)
    assert_no_leftover_slots(prompt.user)


def test_student_prompt_carries_skill_description(item, templates):
    for profile in sample_classroom(8, SkillDistribution.default(), "none", 2):
        prompt = render_student_prompt(item, profile, templates)
        description = templates.skill_description(profile.skill)
        assert description in prompt.system


def test_student_prompt_with_id(item, templates):
    profile = roster_one("ids")
    prompt = render_student_prompt(item, profile, templates)
    assert profile.identity in prompt.system
    assert profile.identity.startswith("STU")
    assert_no_leftover_slots(prompt.system)


def test_student_prompt_with_single_name(item, templates):
    profile = roster_one("single:Marisol")
    prompt = render_student_prompt(item, profile, templates)
    assert "Marisol" in prompt.system
    assert_no_leftover_slots(prompt.system)


def test_student_prompt_with_diverse_name(item, templates):
    profile = roster_one("diverse")
    prompt = render_student_prompt(item, profile, templates)
    assert profile.identity in prompt.system
    assert_no_leftover_slots(prompt.system)


def test_identity_is_the_only_difference_between_students(item, templates):
    roster = sample_classroom(16, SkillDistribution.default(), "diverse", 7)
    same_skill = [p for p in roster if p.skill == roster[0].skill][:2]
    a = render_student_prompt(item, same_skill[0], templates)
    b = render_student_prompt(item, same_skill[1], templates)
    assert a.user == b.user
    swapped = a.system.replace(same_skill[0].identity, same_skill[1].identity)
    assert swapped == b.system


def test_rendering_is_pure(item, templates):
    profile = roster_one("ids")
    first = render_student_prompt(item, profile, templates)
    second = render_student_prompt(item, profile, templates)
    assert first == second


def test_messages_shape(item, templates):
    prompt = render_knowledge_prompt(item, templates)
    messages = prompt.messages()
    assert [m["role"] for m in messages] == ["system", "user"]
    assert messages[1]["content"] == prompt.user


def test_missing_template_file_rejected(item, templates):
    texts = dict(templates.texts)
    del texts["system_knowledge.txt"]
    with pytest.raises(PromptError, match="system_knowledge.txt"):
        render_knowledge_prompt(item, PromptTemplates(texts=texts))


def test_unfilled_slot_detected(item, templates):
    # a template demanding an identity the anonymous roster cannot supply
    texts = dict(templates.texts)
    texts["system_student.txt"] += "\nSigned, [NAME]"
    override = PromptTemplates(texts=texts)
    profile = roster_one("none")
    with pytest.raises(PromptError):
        render_student_prompt(item, profile, override)


def test_json_braces_in_user_template_survive(item, templates):
    profile = roster_one("none")
    prompt = render_student_prompt(item, profile, templates)
    assert '{"reasoning"' in prompt.user


def _digest(prompts):
    blob = "\x1e".join(f"{p.kind.value}\x1f{p.system}\x1f{p.user}" for p in prompts)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# sha256 of the rendered bytes; any change to what a prompt says moves them
PROMPT_DIGESTS = {
    "knowledge": "ab8acb565ab6cfaa7234b7ca8b94a8e9b66703045d43970dc05ee6f7621618b4",
    "direct_percentage": "827b92d3220ee44365408cb82515108339ff53756edde2e95ce101d594367697",
    "none": "7a81f0ffe5fe56a3cbb0a1144639c23beb0b0c9439812b65f5acf19f59c81114",
    "ids": "79fed119237838eef5075d458a20f172f6c519f0edc532488549a84416824b57",
    "single:Ana": "76ae1fb42316228674f0e599cb4fb1d8724be66be67745b74bebeb751b9db2c3",
    "diverse": "4cdd6c8315bf8d3197677c05b5eb17c59022f3c5618d60e63f68abcd38758c1d",
}


def test_rendered_prompt_bytes_are_pinned(item, templates):
    seen = {
        "knowledge": _digest([render_knowledge_prompt(item, templates)]),
        "direct_percentage": _digest([render_direct_percentage_prompt(item, templates)]),
    }
    for strategy in ("none", "ids", "single:Ana", "diverse"):
        roster = sample_classroom(8, SkillDistribution.default(), strategy, 11)
        seen[strategy] = _digest(
            [render_student_prompt(item, profile, templates) for profile in roster]
        )
    assert seen == PROMPT_DIGESTS


@pytest.fixture
def mixed_corpus(tmp_path):
    """Two grades, every content area, and stems shared across grades with
    different choices, so the memo keys must tell all of them apart."""
    records = [make_item_record(i, grade=grade) for grade in (4, 8) for i in range(6)]
    for record in records[6:]:
        record["choices"][0]["text"] = "seven"
    return load_corpus(write_corpus(tmp_path / "mixed.json", records))


def _every_prompt(corpus, templates_for):
    """Every prompt of all three kinds over ``corpus``, for each strategy;
    ``templates_for()`` gives the template set each render uses."""
    prompts = []
    for item in corpus:
        prompts.append(render_knowledge_prompt(item, templates_for()))
        prompts.append(render_direct_percentage_prompt(item, templates_for()))
        for strategy in ("none", "ids", "single:Ana", "diverse"):
            for profile in sample_classroom(8, SkillDistribution.default(), strategy, 11):
                prompts.append(render_student_prompt(item, profile, templates_for()))
    return prompts


def test_remembered_renders_equal_fresh_ones(mixed_corpus, templates):
    fresh = _every_prompt(mixed_corpus, lambda: PromptTemplates(texts=templates.texts))
    first = _every_prompt(mixed_corpus, lambda: templates)
    again = _every_prompt(mixed_corpus, lambda: templates)
    assert first == fresh and again == fresh
    assert len({(p.system, p.user) for p in fresh}) > len(mixed_corpus) * 4


def test_memo_holds_each_rendered_message_once(mixed_corpus, templates):
    prompts = _every_prompt(mixed_corpus, lambda: templates)
    entries = len(templates._rendered)
    assert set(templates._rendered.values()) == {p.system for p in prompts} | {
        p.user for p in prompts
    }
    _every_prompt(mixed_corpus, lambda: templates)
    assert len(templates._rendered) == entries < len(prompts)


def test_unfilled_slot_raises_on_every_call(item, templates):
    texts = dict(templates.texts)
    texts["system_student_id.txt"] = texts["system_student_id.txt"].replace("[STDID]", "[NAME]")
    override = PromptTemplates(texts=texts)
    profile = roster_one("ids")
    for _ in range(2):
        with pytest.raises(PromptError, match=r"\[NAME\]"):
            render_student_prompt(item, profile, override)
    # the failure was not stored, and other messages still render
    assert all("[NAME]" not in text for text in override._rendered.values())
    assert render_student_prompt(item, roster_one("none"), override) == (
        render_student_prompt(item, roster_one("none"), templates)
    )


@pytest.mark.parametrize("filename", ["system_student_named.txt", "user_question_json.txt"])
def test_template_sets_never_share_entries(item, templates, filename):
    texts = dict(templates.texts)
    texts[filename] = texts[filename].strip() + "\nKeep it short."
    other = PromptTemplates(texts=texts)
    profile = roster_one("diverse")
    base = render_student_prompt(item, profile, templates)
    changed = render_student_prompt(item, profile, other)
    assert render_student_prompt(item, profile, templates) == base
    assert render_student_prompt(item, profile, other) == changed
    changed_text = changed.user if filename.startswith("user") else changed.system
    assert changed_text.endswith("Keep it short.")
    assert "Keep it short." not in base.system + base.user
    assert not set(templates._rendered.values()) & {changed_text}
