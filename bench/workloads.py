"""Workload definitions: the inputs each workload feeds classim, built from a seed.

The harness builds every input here and hands classim only files: a corpus,
and for the sweep a config. Nothing in this module imports classim, so the
harness process stays small; the steps that call classim live in
``child.py``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

GRADE = 8
CONTENT_AREAS = ("Algebra", "Geometry", "Measurement", "DataAnalysis", "NumberProperties")
LETTERS = "ABCD"

# The program under test runs with its shipped worker-pool size; the
# harness records it and never tunes it.
MAX_IN_FLIGHT = 8
# Fixed service time of the loopback stub endpoint, in seconds.
STUB_DELAY_S = 0.020

SWEEP_SIZES = (50, 100, 300)
SWEEP_STRATEGIES = ("none", "ids", "diverse")
DPCE_REPLICATES = 10


@dataclass(frozen=True)
class Workload:
    name: str
    n_items: int
    endpoint: bool
    # (run directory, planned requests) for every run one pass makes.
    runs: Tuple[Tuple[str, int], ...]
    students: str

    @property
    def planned_requests(self) -> int:
        return sum(planned for _, planned in self.runs)


def _mock_classroom() -> Workload:
    items, students = 100, 300
    return Workload(
        name="mock-classroom",
        n_items=items,
        endpoint=False,
        runs=(("run", items * students),),
        students=f"{students} diverse",
    )


def _endpoint_small_batches() -> Workload:
    items, students = 50, 10
    return Workload(
        name="endpoint-small-batches",
        n_items=items,
        endpoint=True,
        runs=(
            ("baseline", items),
            ("dpce", items * DPCE_REPLICATES),
            ("simulate", items * students),
        ),
        students=f"{students} none (simulate); dpce averaged x{DPCE_REPLICATES}; baseline x1",
    )


def _sweep_small_corpus() -> Workload:
    items = 8
    runs = tuple(
        (f"sweep/n{n}-{strategy}", items * n)
        for n in SWEEP_SIZES
        for strategy in SWEEP_STRATEGIES
    )
    return Workload(
        name="sweep-small-corpus",
        n_items=items,
        endpoint=False,
        runs=runs,
        students=f"{list(SWEEP_SIZES)} x {list(SWEEP_STRATEGIES)} (mock)",
    )


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (_mock_classroom(), _endpoint_small_batches(), _sweep_small_corpus())
}


def make_corpus(n_items: int, rng: random.Random) -> List[dict]:
    """Items shaped like the test suite's records, with seeded rates.

    Difficulty labels follow the rate tertiles, so every label is present
    and the separation metrics have both hard and easy items.
    """
    rates = [round(rng.uniform(0.15, 0.95), 6) for _ in range(n_items)]
    order = sorted(range(n_items), key=lambda i: rates[i])
    labels = [""] * n_items
    for rank, index in enumerate(order):
        labels[index] = ("Hard", "Medium", "Easy")[min(3 * rank // n_items, 2)]
    records = []
    for index, rate in enumerate(rates):
        correct = LETTERS[rng.randrange(len(LETTERS))]
        wrong = [letter for letter in LETTERS if letter != correct]
        dominant = rng.choice(wrong)
        shares = {
            letter: round((1.0 - rate) * (0.6 if letter == dominant else 0.2), 6)
            for letter in wrong
        }
        shares[correct] = rate
        bump = rng.uniform(-0.08, 0.08)
        records.append(
            {
                "item_id": f"g{GRADE}-{index:04d}",
                "grade": GRADE,
                "content_area": CONTENT_AREAS[rng.randrange(len(CONTENT_AREAS))],
                "difficulty": labels[index],
                "stem": f"Problem {index}: what value completes the statement "
                f"{rng.randrange(2, 50)}x + {rng.randrange(1, 99)} = ?",
                "choices": [
                    {"letter": letter, "text": f"{rng.randrange(1, 500)}"}
                    for letter in LETTERS
                ],
                "correct_key": correct,
                "real_percent_correct": rate,
                "real_choice_distribution": dict(sorted(shares.items())),
                "real_subgroup_percent_correct": {
                    "female": round(min(max(rate + bump, 0.0), 1.0), 6),
                    "male": round(min(max(rate - bump, 0.0), 1.0), 6),
                },
            }
        )
    return records


def write_inputs(workload: Workload, seed: int, directory: Path) -> None:
    """Write the corpus (and the sweep config) one pass reads.

    The same (workload, seed) always writes the same bytes. Paths inside
    are relative to the pass directory, so artifacts that embed the
    config do not depend on where the checkout lives.
    """
    rng = random.Random(f"{workload.name}:{seed}")
    directory.mkdir(parents=True, exist_ok=True)
    with open(directory / "corpus.json", "w", encoding="utf-8") as handle:
        json.dump(make_corpus(workload.n_items, rng), handle, indent=1)
    if workload.name == "sweep-small-corpus":
        config = {
            "corpus_path": "corpus.json",
            "mock": True,
            "grade": GRADE,
            "n_students": list(SWEEP_SIZES),
            "strategy": list(SWEEP_STRATEGIES),
            "seed": seed,
        }
        with open(directory / "sweep.json", "w", encoding="utf-8") as handle:
            json.dump(config, handle, indent=1)
