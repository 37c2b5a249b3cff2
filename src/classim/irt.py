"""One-parameter logistic scaling of a scored response matrix.

Success odds for a student of ability ``beta`` on an item of difficulty
``delta`` are ``exp(beta - delta)``. Abilities are estimated per skill
group rather than per student: rows sharing a skill label pool into one
ability, which keeps the likelihood well determined even when each
student answers only a handful of items. A small L2 penalty keeps
perfectly-answered items finite, and the usual translation invariance is
resolved by centering difficulties at zero after the fit, shifting
abilities by the same amount so all fitted probabilities are unchanged.

The fit itself alternates closed-form Newton steps over the two blocks;
given one block the objective separates per coordinate and is strictly
concave, so capped per-coordinate Newton ascends reliably without any
line search.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from .classroom import SKILL_ORDER, SkillLevel
from .responses import ResponseMatrix

_STEP_CAP = 4.0  # largest logit move a single Newton step may take
_P_FLOOR = 1e-12
RIDGE = 1e-3  # L2 penalty on abilities and difficulties; fit.json's "lambda"
TOL = 1e-8  # convergence: largest absolute penalized-gradient entry
MAX_ITERATIONS = 500  # sweep budget


def rasch_probability(beta, delta):
    """P(correct) for ability ``beta`` against difficulty ``delta``.

    Accepts scalars or broadcastable arrays; stable for large gaps in
    either direction.
    """
    z = np.asarray(beta, dtype=float) - np.asarray(delta, dtype=float)
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    if out.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class SufficientStats:
    """Per (group, item) answer and success counts.

    The penalized likelihood depends on the full matrix only through
    these, which collapses a roster of hundreds of students into one row
    per skill group.
    """

    group_labels: Tuple[str, ...]
    item_ids: Tuple[str, ...]
    n: np.ndarray  # answers observed, groups x items
    s: np.ndarray  # answers correct, groups x items

    @classmethod
    def from_matrix(cls, matrix: ResponseMatrix) -> "SufficientStats":
        canonical = [level.value for level in SKILL_ORDER]
        present = set(matrix.skills)
        labels = [label for label in canonical if label in present]
        labels += sorted(present - set(canonical))
        index = {label: g for g, label in enumerate(labels)}
        n = np.zeros((len(labels), matrix.n_items), dtype=float)
        s = np.zeros((len(labels), matrix.n_items), dtype=float)
        for i, skill in enumerate(matrix.skills):
            g = index[skill]
            row_mask = matrix.mask[i]
            n[g] += row_mask
            s[g] += np.where(row_mask, matrix.data[i], 0)
        return cls(
            group_labels=tuple(labels),
            item_ids=matrix.item_ids,
            n=n,
            s=s,
        )


def penalized_log_likelihood(
    beta: np.ndarray, delta: np.ndarray, stats: SufficientStats, ridge: float
) -> float:
    z = beta[:, None] - delta[None, :]
    ll = float(np.sum(stats.s * z - stats.n * np.logaddexp(0.0, z)))
    penalty = 0.5 * ridge * (float(beta @ beta) + float(delta @ delta))
    return ll - penalty


def gradients(
    beta: np.ndarray, delta: np.ndarray, stats: SufficientStats, ridge: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Exact first derivatives of the penalized objective."""
    p = rasch_probability(beta[:, None], delta[None, :])
    expected = stats.n * p
    grad_beta = (stats.s - expected).sum(axis=1) - ridge * beta
    grad_delta = (expected - stats.s).sum(axis=0) - ridge * delta
    return grad_beta, grad_delta


def data_log_likelihood(
    beta: np.ndarray, delta: np.ndarray, stats: SufficientStats
) -> float:
    """Unpenalized log-likelihood; unchanged by the centering shift."""
    p = rasch_probability(beta[:, None], delta[None, :])
    p = np.clip(p, _P_FLOOR, 1.0 - _P_FLOOR)
    terms = stats.s * np.log(p) + (stats.n - stats.s) * np.log(1.0 - p)
    return float(np.sum(np.where(stats.n > 0, terms, 0.0)))


@dataclass(frozen=True)
class FitResult:
    beta: Dict[str, float]
    delta: Dict[str, float]
    log_likelihood: float
    iterations: int
    converged: bool
    ridge: float
    constraint: str = "mean_zero_delta"

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "beta": {k: float(v) for k, v in self.beta.items()},
            "delta": {k: float(v) for k, v in self.delta.items()},
            "log_likelihood": self.log_likelihood,
            "iterations": self.iterations,
            "converged": self.converged,
            "lambda": self.ridge,
            "constraint": self.constraint,
        }

    @classmethod
    def load(cls, path: str) -> "FitResult":
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
        return cls(
            beta={str(k): float(v) for k, v in raw["beta"].items()},
            delta={str(k): float(v) for k, v in raw["delta"].items()},
            log_likelihood=float(raw["log_likelihood"]),
            iterations=int(raw["iterations"]),
            converged=bool(raw["converged"]),
            ridge=float(raw["lambda"]),
            constraint=str(raw.get("constraint", "mean_zero_delta")),
        )


def _initial_values(stats: SufficientStats) -> Tuple[np.ndarray, np.ndarray]:
    # Continuity-corrected empirical logits; a warm start, not a contract.
    n_item = stats.n.sum(axis=0)
    s_item = stats.s.sum(axis=0)
    fail = (n_item - s_item + 0.5) / (n_item + 1.0)
    delta = np.log(fail / (1.0 - fail))
    n_group = stats.n.sum(axis=1)
    s_group = stats.s.sum(axis=1)
    win = (s_group + 0.5) / (n_group + 1.0)
    beta = np.log(win / (1.0 - win))
    return beta, delta


def fit_rasch(matrix: ResponseMatrix) -> FitResult:
    """Estimate group abilities and item difficulties jointly.

    Iterates block Newton sweeps until the largest penalized-gradient
    entry drops below ``TOL`` or ``MAX_ITERATIONS`` sweeps have run;
    ``converged`` reports which happened. The returned log-likelihood is
    the data term only, so it is comparable across runs regardless of
    ridge strength or centering.
    """
    stats = SufficientStats.from_matrix(matrix)
    if not stats.group_labels or not stats.item_ids:
        raise ValueError("cannot fit an empty response matrix")

    beta, delta = _initial_values(stats)
    converged = False
    iterations = 0
    for iterations in range(1, MAX_ITERATIONS + 1):
        p = rasch_probability(beta[:, None], delta[None, :])
        w = stats.n * p * (1.0 - p)
        grad_b = (stats.s - stats.n * p).sum(axis=1) - RIDGE * beta
        step = grad_b / (w.sum(axis=1) + RIDGE)
        beta = beta + np.clip(step, -_STEP_CAP, _STEP_CAP)

        p = rasch_probability(beta[:, None], delta[None, :])
        w = stats.n * p * (1.0 - p)
        grad_d = (stats.n * p - stats.s).sum(axis=0) - RIDGE * delta
        step = grad_d / (w.sum(axis=0) + RIDGE)
        delta = delta + np.clip(step, -_STEP_CAP, _STEP_CAP)

        # Shifting both blocks together leaves every probability alone, so
        # the data term is flat along that direction and only the ridge
        # curves it; block updates crawl there, but the optimal shift has
        # a closed form. Applying it each sweep keeps convergence fast.
        shift = (beta.sum() + delta.sum()) / (len(beta) + len(delta))
        beta = beta - shift
        delta = delta - shift

        grad_b, grad_d = gradients(beta, delta, stats, RIDGE)
        worst = max(
            float(np.max(np.abs(grad_b))), float(np.max(np.abs(grad_d)))
        )
        if worst < TOL:
            converged = True
            break

    shift = float(np.mean(delta))
    delta = delta - shift
    beta = beta - shift
    return FitResult(
        beta={label: float(b) for label, b in zip(stats.group_labels, beta)},
        delta={item_id: float(d) for item_id, d in zip(stats.item_ids, delta)},
        log_likelihood=data_log_likelihood(beta, delta, stats),
        iterations=iterations,
        converged=converged,
        ridge=RIDGE,
    )


def sample_rasch_matrix(
    betas: Dict[str, float],
    deltas: Dict[str, float],
    counts: Dict[str, int],
    seed: int,
) -> ResponseMatrix:
    """Draw a fully observed matrix from known parameters.

    Used to exercise recovery: fit the sample, compare against the
    generating values. Rows are laid out group by group in the order the
    ``betas`` mapping provides.
    """
    from .rng import SplitMix64, derive_seed

    item_ids = tuple(deltas)
    delta_vec = np.array([deltas[i] for i in item_ids], dtype=float)
    skills: List[str] = []
    rows: List[np.ndarray] = []
    student_index = 0
    for label, beta in betas.items():
        p_row = rasch_probability(beta, delta_vec)
        for _ in range(counts.get(label, 0)):
            rng = SplitMix64(derive_seed(seed, "rasch-sample", student_index))
            draws = np.array(
                [rng.next_float() for _ in range(len(item_ids))], dtype=float
            )
            rows.append((draws < p_row).astype(np.int8))
            skills.append(label)
            student_index += 1
    data = np.vstack(rows) if rows else np.zeros((0, len(item_ids)), dtype=np.int8)
    return ResponseMatrix(
        item_ids=item_ids,
        student_indices=tuple(range(len(skills))),
        skills=tuple(skills),
        data=data,
        mask=np.ones_like(data, dtype=bool),
    )
