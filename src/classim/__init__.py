"""Simulated classrooms for calibrating question difficulty.

A corpus of multiple-choice items is answered by language-model personas
spanning four skill levels, the graded answers are scaled with a
one-parameter logistic model, and the resulting per-item success rates
are compared against observed student performance.
"""

__version__ = "0.1.0"

from .classroom import (
    SkillDistribution,
    SkillLevel,
    allocate_counts,
    sample_classroom,
    strategy_kind,
)
from .corpus import Corpus, Item, filter_corpus, load_corpus
from .gateway import Gateway, HttpChatBackend, MockStudentModel
from .irt import FitResult, fit_rasch, rasch_probability
from .metrics import (
    difficulty_separation,
    distractor_match,
    ensemble_predictions,
    mann_whitney_auc,
    pearson,
    spearman,
)
from .orchestrator import (
    ExperimentConfig,
    evaluate_run,
    expand_sweep,
    render_report,
    run_baseline,
    run_dpce,
    run_ensemble,
    run_simulate,
)
from .responses import build_matrix, parse_answer, parse_percentage

__all__ = [
    "__version__",
    "SkillDistribution",
    "SkillLevel",
    "allocate_counts",
    "sample_classroom",
    "strategy_kind",
    "Corpus",
    "Item",
    "filter_corpus",
    "load_corpus",
    "Gateway",
    "HttpChatBackend",
    "MockStudentModel",
    "FitResult",
    "fit_rasch",
    "rasch_probability",
    "difficulty_separation",
    "distractor_match",
    "ensemble_predictions",
    "mann_whitney_auc",
    "pearson",
    "spearman",
    "ExperimentConfig",
    "evaluate_run",
    "expand_sweep",
    "render_report",
    "run_baseline",
    "run_dpce",
    "run_ensemble",
    "run_simulate",
    "build_matrix",
    "parse_answer",
    "parse_percentage",
]
