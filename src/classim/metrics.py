"""Agreement measures between simulated and observed item statistics.

Correlations and the rank-based separation measure are written out
directly rather than delegated, because their exact tie and edge
behavior is part of this package's contract and is cross-checked against
brute-force references in the test suite. Only the Student-t tail needed
for p-values comes from SciPy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np
from scipy.special import stdtr

from .corpus import Corpus
from .irt import SufficientStats
from .responses import ResponseMatrix, SimulatedResponse
from .rng import SplitMix64, derive_seed, splitmix64_block

PERMUTATION_ROUNDS = 10000  # shuffles behind every permutation p-value
_BLOCK_ROUNDS = 1024  # rounds computed together; bounds the temporaries
_RECHECK = 1e-9  # |r| this close to the hit threshold is decided by _pearson_r


@dataclass(frozen=True)
class CorrelationResult:
    r: float
    p_value: float
    n: int


def _as_float_arrays(x: Sequence[float], y: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
    ax = np.asarray(x, dtype=float)
    ay = np.asarray(y, dtype=float)
    if ax.shape != ay.shape or ax.ndim != 1:
        raise ValueError("inputs must be one-dimensional and equally long")
    return ax, ay


def _pearson_r(ax: np.ndarray, ay: np.ndarray) -> float:
    dx = ax - ax.mean()
    dy = ay - ay.mean()
    sx = float(dx @ dx)
    sy = float(dy @ dy)
    if sx == 0.0 or sy == 0.0:
        return float("nan")
    return float((dx @ dy) / math.sqrt(sx * sy))


def _t_pvalue(r: float, n: int) -> float:
    if n < 3 or math.isnan(r):
        return float("nan")
    denom = 1.0 - r * r
    if denom <= 0.0:
        return 0.0
    t = r * math.sqrt((n - 2) / denom)
    return float(2.0 * stdtr(n - 2, -abs(t)))


def pearson(x: Sequence[float], y: Sequence[float]) -> CorrelationResult:
    """Linear correlation with a two-sided t-based p-value.

    Degenerate cases surface as NaN rather than a silent zero: a constant
    series has no linear association to report.
    """
    ax, ay = _as_float_arrays(x, y)
    r = _pearson_r(ax, ay)
    return CorrelationResult(r=r, p_value=_t_pvalue(r, len(ax)), n=len(ax))


def average_ranks(values: Sequence[float]) -> np.ndarray:
    """1-based ranks; tied values share the mean of their rank span."""
    arr = np.asarray(values, dtype=float)
    order = np.argsort(arr, kind="stable")
    ranks = np.empty(len(arr), dtype=float)
    i = 0
    while i < len(arr):
        j = i
        while j + 1 < len(arr) and arr[order[j + 1]] == arr[order[i]]:
            j += 1
        # positions i..j (0-based) share ranks i+1..j+1
        ranks[order[i : j + 1]] = (i + j + 2) / 2.0
        i = j + 1
    return ranks


def spearman(x: Sequence[float], y: Sequence[float]) -> CorrelationResult:
    """Rank correlation: the linear correlation of average ranks."""
    ax, ay = _as_float_arrays(x, y)
    r = _pearson_r(average_ranks(ax), average_ranks(ay))
    return CorrelationResult(r=r, p_value=_t_pvalue(r, len(ax)), n=len(ax))


def _round_shuffles(seed: int, n: int, first: int, count: int) -> Optional[np.ndarray]:
    """What ``SplitMix64(seed).shuffle`` does in rounds ``first`` .. ``first + count - 1``.

    Row k is the order that round ``first + k`` alone makes of
    ``range(n)``, taken from the stream's draws in numpy: each round
    takes n - 1 of them, and swap i's target is ``u % (i + 1)``. None if
    one of those draws is past its ``randrange`` rejection limit, since
    the scalar stream would then draw again and shift every later round.
    """
    bounds = range(n, 1, -1)
    draws = splitmix64_block(seed, first * (n - 1), count * (n - 1)).reshape(count, n - 1)
    limits = np.array([(1 << 64) - 1 - (1 << 64) % b for b in bounds], dtype=np.uint64)
    if (draws > limits).any():
        return None
    draws %= np.array(bounds, dtype=np.uint64)
    targets = draws.view(np.int64)
    rows = np.arange(count)
    orders = np.tile(np.arange(n), (count, 1))
    for t, i in enumerate(range(n - 1, 0, -1)):
        j = targets[:, t]
        held = orders[:, i].copy()
        orders[:, i] = orders[rows, j]
        orders[rows, j] = held
    return orders


def _block_hits(left: np.ndarray, right: np.ndarray, threshold: float) -> int:
    """Rows of ``right`` whose |r| with ``left`` reaches ``threshold``.

    Every row's r comes from one array pass. Its arithmetic may round
    differently from ``_pearson_r``'s (BLAS sums in its own order), so a
    row within ``_RECHECK`` of the threshold, or with no r, is decided by
    ``_pearson_r`` itself.
    """
    dx = left - left.mean()
    dy = right - right.mean(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.abs(
            np.einsum("ij,j->i", dy, dx)
            / np.sqrt(float(dx @ dx) * np.einsum("ij,ij->i", dy, dy))
        )
    clear = np.abs(r - threshold) > _RECHECK
    hits = int((clear & (r >= threshold)).sum())
    for row in right[~clear]:
        seen = _pearson_r(left, row)
        if not math.isnan(seen) and abs(seen) >= threshold:
            hits += 1
    return hits


def _scalar_hits(
    pairs: Sequence[Tuple[np.ndarray, np.ndarray]], observed: List[float], seed: int
) -> List[int]:
    """Hits per pair, one ``SplitMix64.shuffle`` and one r at a time."""
    rng = SplitMix64(seed)
    order = list(range(len(pairs[0][1])))
    hits = [0, 0]
    for _ in range(PERMUTATION_ROUNDS):
        rng.shuffle(order)
        index = np.array(order)
        for k, (left, right) in enumerate(pairs):
            r = _pearson_r(left, right[index])
            if not math.isnan(r) and abs(r) >= observed[k] - 1e-15:
                hits[k] += 1
    return hits


def permutation_pvalue(
    x: Sequence[float], y: Sequence[float], seed: int
) -> Tuple[float, float]:
    """Two-sided Monte Carlo permutation p for Pearson and Spearman.

    The t approximation is shaky below a dozen points; this shuffles the
    positions of one series ``PERMUTATION_ROUNDS`` times and counts the
    rounds at least as extreme as what was seen. One stream of shuffles
    serves both correlations: each round indexes the values and their
    average ranks with the same order. Add-one smoothing keeps the
    estimate away from an impossible zero. Returns
    ``(pearson_p, spearman_p)``.

    The rounds are the ``SplitMix64.shuffle`` stream, computed in numpy
    ``_BLOCK_ROUNDS`` at a time: the block's draws give each round's own
    order, a doubling scan compounds them (each round shuffles the one
    before), and the previous block's last order is composed in front.
    Every round's r then comes from one array pass, and a round whose r
    lies within ``_RECHECK`` of the hit threshold is decided by
    ``_pearson_r`` itself, so the p-values are bit for bit those of the
    scalar loop. If a draw would be rejected by ``randrange`` (odds about
    n in 2**64), the whole call runs the scalar loop instead.
    """
    ax, ay = _as_float_arrays(x, y)
    pairs = ((ax, ay), (average_ranks(ax), average_ranks(ay)))
    observed = [abs(_pearson_r(left, right)) for left, right in pairs]
    if all(math.isnan(seen) for seen in observed):
        return float("nan"), float("nan")
    stream = derive_seed(seed, "permutation")
    n = len(ay)
    carry = np.arange(n)
    hits = [0, 0]
    for first in range(0, PERMUTATION_ROUNDS, _BLOCK_ROUNDS):
        size = min(_BLOCK_ROUNDS, PERMUTATION_ROUNDS - first)
        orders = _round_shuffles(stream, n, first, size)
        if orders is None:
            hits = _scalar_hits(pairs, observed, stream)
            break
        step = 1
        while step < size:
            orders[step:] = np.take_along_axis(orders[:-step], orders[step:], axis=1)
            step *= 2
        orders = carry[orders]
        carry = orders[-1]
        for k, (left, right) in enumerate(pairs):
            if not math.isnan(observed[k]):
                hits[k] += _block_hits(left, right[orders], observed[k] - 1e-15)
    pearson_p, spearman_p = (
        float("nan") if math.isnan(seen) else (1 + count) / (1 + PERMUTATION_ROUNDS)
        for seen, count in zip(observed, hits)
    )
    return pearson_p, spearman_p


def mann_whitney_auc(
    higher: Sequence[float], lower: Sequence[float]
) -> float:
    """P(draw from ``higher`` exceeds draw from ``lower``), ties half.

    Computed from rank sums, so it matches the probability definition
    exactly and, for a monotone score, any strictly increasing transform
    of the scores gives the same value.
    """
    hi = np.asarray(higher, dtype=float)
    lo = np.asarray(lower, dtype=float)
    if len(hi) == 0 or len(lo) == 0:
        return float("nan")
    ranks = average_ranks(np.concatenate([hi, lo]))
    rank_sum = float(ranks[: len(hi)].sum())
    u = rank_sum - len(hi) * (len(hi) + 1) / 2.0
    return u / (len(hi) * len(lo))


@dataclass(frozen=True)
class DifficultySeparation:
    auc: float
    n_hard: int
    n_other: int


def difficulty_separation(
    predictions: Mapping[str, float],
    labels: Mapping[str, str],
    mode: str = "hard_vs_easy",
) -> DifficultySeparation:
    """How cleanly predicted success rates separate hard items.

    Returns the probability that a non-hard item gets the higher
    predicted rate, so a useful predictor scores near 1. The default
    compares hard against easy only, leaving middling items out of the
    comparison; ``mode="hard_vs_rest"`` pools everything that is not
    hard.
    """
    if mode not in ("hard_vs_easy", "hard_vs_rest"):
        raise ValueError(f"unknown separation mode {mode!r}")
    hard: List[float] = []
    other: List[float] = []
    for item_id, score in predictions.items():
        label = labels.get(item_id)
        if label is None:
            continue
        if label == "Hard":
            hard.append(score)
        elif mode == "hard_vs_rest" or label == "Easy":
            other.append(score)
    return DifficultySeparation(
        auc=mann_whitney_auc(other, hard),
        n_hard=len(hard),
        n_other=len(other),
    )


@dataclass(frozen=True)
class DistractorMatchResult:
    match_rate: float
    n_items: int
    # Expected match rate for a model picking wrong answers blindly;
    # reported both against the wrong choices only and against all
    # choices, since both conventions appear in practice.
    chance_wrong_only: float
    chance_all_choices: float
    model_ties: int
    observed_ties: int


def _top_wrong_letter(
    shares: Mapping[str, float], wrong_letters: Sequence[str]
) -> Tuple[Optional[str], bool]:
    best: Optional[str] = None
    best_share = -1.0
    tie = False
    for letter in wrong_letters:  # letter order breaks exact ties
        share = float(shares.get(letter, 0.0))
        if share > best_share:
            best, best_share, tie = letter, share, False
        elif share == best_share:
            tie = True
    return best, tie


def tally_wrong_choices(
    responses: Iterable[SimulatedResponse], counts: Dict[str, Dict[str, int]]
) -> Iterator[SimulatedResponse]:
    """Pass ``responses`` through unchanged, adding each wrong choice to
    ``counts[item_id][letter]``: a reply that holds a letter and is graded
    incorrect. Unanswered replies, failed parses among them, do not count."""
    for response in responses:
        if response.chosen is not None and response.correct != 1:
            picked = counts.setdefault(response.item_id, {})
            picked[response.chosen] = picked.get(response.chosen, 0) + 1
        yield response


def distractor_match(
    responses: Iterable[SimulatedResponse], corpus: Corpus
) -> DistractorMatchResult:
    """Does the model fall for the same wrong answer students do?

    For each item with an observed choice distribution, compare the
    model's most-picked wrong letter against the students' most-picked
    wrong letter. Ties break by letter order on both sides and are
    counted, since a tie-broken match is weaker evidence than a clear
    one. Items where the model never answered wrongly are skipped.
    """
    counts: Dict[str, Dict[str, int]] = {}
    for _ in tally_wrong_choices(responses, counts):
        pass
    return distractor_agreement(counts, corpus)


def distractor_agreement(
    counts: Mapping[str, Mapping[str, int]], corpus: Corpus
) -> DistractorMatchResult:
    """:func:`distractor_match` from the wrong choices that
    :func:`tally_wrong_choices` counted, per item in order of first reply."""
    matches = 0
    n_items = 0
    model_ties = 0
    observed_ties = 0
    inv_wrong = 0.0
    inv_all = 0.0
    for item_id, picked in counts.items():
        item = corpus.by_id.get(item_id)
        if item is None or not item.real_choice_distribution:
            continue
        wrong = item.wrong_letters()
        model_top, m_tie = _top_wrong_letter(
            {k: float(v) for k, v in picked.items()}, wrong
        )
        observed_top, o_tie = _top_wrong_letter(item.real_choice_distribution, wrong)
        if model_top is None or observed_top is None:
            continue
        n_items += 1
        model_ties += int(m_tie)
        observed_ties += int(o_tie)
        matches += int(model_top == observed_top)
        inv_wrong += 1.0 / len(wrong)
        inv_all += 1.0 / len(item.choices)
    per = n_items or float("nan")  # with no item, every share is NaN
    return DistractorMatchResult(
        match_rate=matches / per,
        n_items=n_items,
        chance_wrong_only=inv_wrong / per,
        chance_all_choices=inv_all / per,
        model_ties=model_ties,
        observed_ties=observed_ties,
    )


def skill_correctness(matrix: ResponseMatrix) -> Dict[str, float]:
    """Observed fraction correct per skill label, over unmasked cells, in
    the order of the fit's groups."""
    stats = SufficientStats.from_matrix(matrix)
    observed, correct = stats.n.sum(axis=1), stats.s.sum(axis=1)
    return {
        label: float(correct[g] / observed[g]) if observed[g] else float("nan")
        for g, label in enumerate(stats.group_labels)
    }


def subgroup_correlations(
    matrix: ResponseMatrix,
    student_groups: Mapping[str, Sequence[int]],
    real_rates: Mapping[str, Mapping[str, float]],
) -> Dict[str, CorrelationResult]:
    """Per-subgroup agreement with subgroup-specific observed rates.

    ``student_groups`` maps a subgroup label to the student indices that
    belong to it; ``real_rates`` maps the same label to observed per-item
    rates. Items missing an observed rate for a label drop out of that
    label's correlation.
    """
    members = np.zeros((len(student_groups), matrix.n_students), dtype=bool)
    for g, group in enumerate(student_groups.values()):
        members[g] = np.isin(matrix.student_indices, group)
    counts, sums = matrix.group_counts(members)
    results: Dict[str, CorrelationResult] = {}
    for g, label in enumerate(student_groups):
        observed = real_rates.get(label, {})
        if not members[g].any() or not observed:
            continue
        sim: List[float] = []
        real: List[float] = []
        for j, item_id in enumerate(matrix.item_ids):
            if counts[g, j] == 0 or item_id not in observed:
                continue
            sim.append(sums[g, j] / counts[g, j])
            real.append(float(observed[item_id]))
        if len(sim) >= 3:
            results[label] = pearson(sim, real)
    return results


def ensemble_predictions(
    predictions: Sequence[Mapping[str, float]],
    weights: Optional[Sequence[float]] = None,
) -> Dict[str, float]:
    """Weighted per-item average across prediction sets.

    Weights renormalize over the models that actually cover each item, so
    partial coverage shifts mass instead of deflating the average.
    Uniform weights by default.
    """
    if not predictions:
        return {}
    if weights is None:
        weights = [1.0] * len(predictions)
    if len(weights) != len(predictions):
        raise ValueError("one weight per prediction set is required")
    if not all(math.isfinite(w) and w >= 0 for w in weights) or not any(weights):
        raise ValueError(f"weights must be finite, non-negative and not all zero: {list(weights)}")
    # every item id once, in order of first appearance
    item_ids = dict.fromkeys(item_id for source in predictions for item_id in source)
    out: Dict[str, float] = {}
    for item_id in item_ids:
        total = 0.0
        mass = 0.0
        for source, weight in zip(predictions, weights):
            if item_id in source:
                total += weight * float(source[item_id])
                mass += weight
        if mass > 0.0:
            out[item_id] = total / mass
    return out
