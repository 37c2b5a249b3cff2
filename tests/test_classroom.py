import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from classim.classroom import (
    RACES,
    SKILL_ORDER,
    SkillDistribution,
    SkillLevel,
    allocate_counts,
    load_name_pool,
    sample_classroom,
    strategy_kind,
)


def counts_as_values(counts):
    return {level.value: count for level, count in counts.items()}


def test_default_mix_at_300():
    counts = allocate_counts(300, SkillDistribution.default())
    assert counts_as_values(counts) == {
        "BelowBasic": 75,
        "Basic": 105,
        "Proficient": 75,
        "Advanced": 45,
    }


def test_half_seat_ties_go_to_lower_skill_first():
    # 50 * (.25, .35, .25, .15) leaves four exact .5 remainders and two
    # open seats; they must land on the earliest skill levels
    counts = allocate_counts(50, SkillDistribution.default())
    assert counts_as_values(counts) == {
        "BelowBasic": 13,
        "Basic": 18,
        "Proficient": 12,
        "Advanced": 7,
    }


def test_exact_quotas_stay_exact():
    counts = allocate_counts(20, SkillDistribution.default())
    assert counts_as_values(counts) == {
        "BelowBasic": 5,
        "Basic": 7,
        "Proficient": 5,
        "Advanced": 3,
    }
    quarter = SkillDistribution.from_mapping(
        {"BelowBasic": 0.25, "Basic": 0.25, "Proficient": 0.25, "Advanced": 0.25}
    )
    assert set(allocate_counts(20, quarter).values()) == {5}


def test_tiny_classrooms():
    counts = allocate_counts(1, SkillDistribution.default())
    assert sum(counts.values()) == 1
    assert counts[SkillLevel.BASIC] == 1  # largest remainder wins the seat
    with pytest.raises(ValueError):
        allocate_counts(0, SkillDistribution.default())


@given(
    st.integers(min_value=1, max_value=10000),
    st.tuples(*([st.integers(min_value=0, max_value=100)] * 4)).filter(
        lambda w: sum(w) > 0
    ),
)
@settings(max_examples=300, deadline=None)
def test_counts_always_sum_to_n(n, raw_weights):
    total = sum(raw_weights)
    weights = {
        level.value: w / total for level, w in zip(SKILL_ORDER, raw_weights)
    }
    counts = allocate_counts(n, SkillDistribution.from_mapping(weights))
    assert sum(counts.values()) == n
    assert all(c >= 0 for c in counts.values())


def test_distribution_validation():
    with pytest.raises(ValueError):
        SkillDistribution.from_mapping({"BelowBasic": 1.0})
    with pytest.raises(ValueError):
        SkillDistribution.from_mapping(
            {"BelowBasic": 0.5, "Basic": 0.5, "Proficient": 0.5, "Advanced": -0.5}
        )


def test_roster_is_grouped_by_skill_in_order():
    roster = sample_classroom(300, SkillDistribution.default(), "none", seed=4)
    assert [p.student_index for p in roster] == list(range(300))
    skills = [p.skill for p in roster]
    assert skills == sorted(skills, key=SKILL_ORDER.index)
    assert Counter(s.value for s in skills) == {
        "BelowBasic": 75,
        "Basic": 105,
        "Proficient": 75,
        "Advanced": 45,
    }
    assert all(p.identity is None and p.identity_kind == "none" for p in roster)


def test_student_ids_are_unique_and_well_formed():
    roster = sample_classroom(300, SkillDistribution.default(), "ids", seed=4)
    ids = [p.identity for p in roster]
    assert len(set(ids)) == 300
    assert all(re.fullmatch(r"STU\d{6}", i) for i in ids)


def test_single_name_shared_by_everyone():
    roster = sample_classroom(40, SkillDistribution.default(), "single:Aryan", seed=0)
    assert {p.identity for p in roster} == {"Aryan"}
    assert all(p.identity_kind == "single" for p in roster)
    assert all(p.name_demographics is None for p in roster)


def test_diverse_names_balance_demographic_cells():
    pool = load_name_pool()
    assert len(pool) == 48
    roster = sample_classroom(300, SkillDistribution.default(), "diverse", seed=9)
    cells = Counter(p.name_demographics for p in roster)
    assert len(cells) == 8  # 4 races x 2 genders
    assert max(cells.values()) - min(cells.values()) <= 1
    races = Counter(race for _, race in (p.name_demographics for p in roster))
    assert set(races) == set(RACES)


def test_diverse_demographics_do_not_track_skill():
    # the skill layout must be identical whatever identity strategy runs
    anonymous = sample_classroom(96, SkillDistribution.default(), "none", seed=9)
    named = sample_classroom(96, SkillDistribution.default(), "diverse", seed=9)
    assert [p.skill for p in anonymous] == [p.skill for p in named]
    # within every skill block, all 8 cells appear for a block of 48+
    basic = [p for p in named if p.skill is SkillLevel.BASIC]
    assert len({p.name_demographics for p in basic}) == 8


def test_names_repeat_only_after_pool_exhausts():
    roster = sample_classroom(48, SkillDistribution.default(), "diverse", seed=3)
    assert len({p.identity for p in roster}) == 48
    bigger = sample_classroom(96, SkillDistribution.default(), "diverse", seed=3)
    assert Counter(p.identity for p in bigger).most_common(1)[0][1] == 2


def test_rosters_are_deterministic_per_seed():
    a = sample_classroom(60, SkillDistribution.default(), "ids", seed=5)
    b = sample_classroom(60, SkillDistribution.default(), "ids", seed=5)
    c = sample_classroom(60, SkillDistribution.default(), "ids", seed=6)
    assert a == b
    assert a != c


def test_strategy_spec_parsing():
    assert strategy_kind("none") == "none"
    assert strategy_kind("ids") == "ids"
    assert strategy_kind("single:Imani") == "single"
    assert strategy_kind("diverse") == "diverse"
    with pytest.raises(ValueError):
        strategy_kind("single:")
    with pytest.raises(ValueError):
        strategy_kind("fancy")


def test_name_pool_structure():
    pool = load_name_pool()
    cells = Counter((r.race, r.gender) for r in pool)
    assert len(cells) == 8
    assert set(cells.values()) == {6}
    assert len({r.name for r in pool}) == 48
