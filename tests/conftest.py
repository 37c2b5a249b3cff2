import json

import pytest

CONTENT_AREAS = (
    "Algebra",
    "Geometry",
    "Measurement",
    "DataAnalysis",
    "NumberProperties",
)

DIFFICULTIES = ("Easy", "Medium", "Hard")

# (field, value) pairs that no log record classim writes can hold
OUT_OF_DOMAIN = [
    ("correct", 2),
    ("correct", -1),
    ("correct", 10**30),
    ("student_index", -2),
    ("student_index", 10**400),
    ("replicate", -1),
    ("parse_status", "bogus"),
]
OUT_OF_DOMAIN_IDS = [
    "correct-2", "correct-minus-1", "correct-1e30", "student-minus-2", "student-1e400",
    "replicate-minus-1", "status-bogus",
]


def make_item_record(
    index,
    grade=8,
    difficulty=None,
    rate=None,
    n_choices=4,
    with_distribution=False,
    with_subgroups=False,
):
    letters = "ABCDE"[:n_choices]
    correct = letters[index % n_choices]
    if rate is None:
        # deterministic spread over (0.15, 0.95), decorrelated from index order
        rate = 0.15 + 0.8 * ((index * 37) % 200) / 199.0
    record = {
        "item_id": f"g{grade}-{index:04d}",
        "grade": grade,
        "content_area": CONTENT_AREAS[index % len(CONTENT_AREAS)],
        "difficulty": difficulty or DIFFICULTIES[index % len(DIFFICULTIES)],
        "stem": f"Problem {index}: what value completes the statement?",
        "choices": [
            {"letter": letter, "text": f"choice {k}"} for k, letter in enumerate(letters)
        ],
        "correct_key": correct,
        "real_percent_correct": round(rate, 6),
    }
    if with_distribution:
        wrong = [letter for letter in letters if letter != correct]
        remaining = 1.0 - rate
        # one dominant distractor, rotating with the index
        shares = {}
        dominant = wrong[index % len(wrong)]
        for letter in wrong:
            shares[letter] = remaining * (0.6 if letter == dominant else 0.4 / (len(wrong) - 1))
        shares[correct] = rate
        record["real_choice_distribution"] = {k: round(v, 6) for k, v in shares.items()}
    if with_subgroups:
        bump = 0.05 if index % 2 == 0 else -0.05
        record["real_subgroup_percent_correct"] = {
            "female": round(min(max(rate + bump, 0.0), 1.0), 6),
            "male": round(min(max(rate - bump, 0.0), 1.0), 6),
        }
    return record


def write_corpus(path, records):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(records, handle)
    return str(path)


@pytest.fixture
def small_corpus_path(tmp_path):
    records = [
        make_item_record(i, with_distribution=True, with_subgroups=True)
        for i in range(15)
    ]
    return write_corpus(tmp_path / "corpus.json", records)


@pytest.fixture
def corpus_factory(tmp_path):
    counter = {"n": 0}

    def build(records):
        counter["n"] += 1
        return write_corpus(tmp_path / f"corpus{counter['n']}.json", records)

    return build
