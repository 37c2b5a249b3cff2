import math
import warnings
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from classim.classroom import SkillDistribution, sample_classroom
from classim.corpus import parse_corpus_records
from classim.irt import fit_rasch
from classim import metrics
from classim.metrics import (
    PERMUTATION_ROUNDS,
    _pearson_r,
    average_ranks,
    difficulty_separation,
    distractor_agreement,
    distractor_match,
    ensemble_predictions,
    mann_whitney_auc,
    pearson,
    permutation_pvalue,
    skill_correctness,
    spearman,
    subgroup_correlations,
    tally_wrong_choices,
)
from classim.responses import ResponseMatrix, SimulatedResponse, build_matrix
from classim.rng import SplitMix64, derive_seed

from conftest import make_item_record


def brute_pearson(x, y):
    n = len(x)
    mx, my = sum(x) / n, sum(y) / n
    num = sum((a - mx) * (b - my) for a, b in zip(x, y))
    den = math.sqrt(
        sum((a - mx) ** 2 for a in x) * sum((b - my) ** 2 for b in y)
    )
    return num / den if den else float("nan")


def brute_auc(higher, lower):
    wins = 0.0
    for h in higher:
        for low in lower:
            if h > low:
                wins += 1.0
            elif h == low:
                wins += 0.5
    return wins / (len(higher) * len(lower))


class TestPearson:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(3, 12))
            x = list(rng.normal(size=n))
            y = list(rng.normal(size=n))
            assert pearson(x, y).r == pytest.approx(brute_pearson(x, y), abs=1e-12)

    def test_perfect_and_inverted(self):
        x = [1.0, 2.0, 3.0, 4.0]
        assert pearson(x, [2 * v + 1 for v in x]).r == pytest.approx(1.0)
        assert pearson(x, [-v for v in x]).r == pytest.approx(-1.0)
        assert pearson(x, [2 * v for v in x]).p_value == 0.0

    def test_constant_series_is_nan(self):
        result = pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        assert math.isnan(result.r) and math.isnan(result.p_value)

    def test_pvalue_matches_reference(self):
        from scipy import stats

        rng = np.random.default_rng(5)
        for n in (5, 8, 30):
            x = rng.normal(size=n)
            y = 0.5 * x + rng.normal(size=n)
            ours = pearson(x, y)
            ref = stats.pearsonr(x, y)
            assert ours.r == pytest.approx(ref.statistic, abs=1e-12)
            assert ours.p_value == pytest.approx(ref.pvalue, rel=1e-9)

    def test_tiny_n_has_no_pvalue(self):
        result = pearson([1.0, 2.0], [2.0, 1.0])
        assert result.r == pytest.approx(-1.0)
        assert math.isnan(result.p_value)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pearson([1.0, 2.0], [1.0])


class TestRanksAndSpearman:
    def test_simple_ranks(self):
        assert average_ranks([30.0, 10.0, 20.0]).tolist() == [3.0, 1.0, 2.0]

    def test_tied_ranks_share_mean(self):
        assert average_ranks([5.0, 1.0, 5.0, 3.0]).tolist() == [3.5, 1.0, 3.5, 2.0]
        assert average_ranks([2.0, 2.0, 2.0]).tolist() == [2.0, 2.0, 2.0]

    def test_spearman_is_pearson_of_ranks(self):
        x = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0]
        y = [2.0, 7.0, 1.0, 8.0, 2.0, 8.0]
        expected = brute_pearson(
            list(average_ranks(x)), list(average_ranks(y))
        )
        assert spearman(x, y).r == pytest.approx(expected, abs=1e-12)

    def test_spearman_matches_reference_with_ties(self):
        from scipy import stats

        rng = np.random.default_rng(9)
        for _ in range(20):
            n = int(rng.integers(4, 15))
            x = list(rng.integers(0, 5, size=n).astype(float))
            y = list(rng.integers(0, 5, size=n).astype(float))
            ref = stats.spearmanr(x, y).statistic
            ours = spearman(x, y).r
            if math.isnan(ref):
                assert math.isnan(ours)
            else:
                assert ours == pytest.approx(ref, abs=1e-12)

    def test_monotone_transform_gives_one(self):
        x = [0.1, 0.4, 0.2, 0.9]
        y = [math.exp(v) for v in x]
        assert spearman(x, y).r == pytest.approx(1.0)


def reference_permutation_pvalue(x, y, seed, rounds, rank=False):
    """The scalar algorithm: shuffle a copy of the values, one statistic."""
    ax, ay = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if rank:
        ax, ay = average_ranks(ax), average_ranks(ay)
    observed = abs(_pearson_r(ax, ay))
    if math.isnan(observed):
        return float("nan")
    rng = SplitMix64(derive_seed(seed, "permutation"))
    shuffled = list(ay)
    hits = 0
    for _ in range(rounds):
        rng.shuffle(shuffled)
        r = _pearson_r(ax, np.asarray(shuffled))
        if not math.isnan(r) and abs(r) >= observed - 1e-15:
            hits += 1
    return (1 + hits) / (1 + rounds)


def reference_pair(x, y, seed, rounds):
    return tuple(
        reference_permutation_pvalue(x, y, seed, rounds, rank=rank)
        for rank in (False, True)
    )


def same_floats(a, b):
    return len(a) == len(b) and all(
        u == v or (math.isnan(u) and math.isnan(v)) for u, v in zip(a, b)
    )


class TestPermutation:
    def test_deterministic_per_seed(self):
        x = [1.0, 2.0, 3.0, 4.0, 5.0]
        y = [1.1, 1.9, 3.2, 3.8, 5.1]
        a = permutation_pvalue(x, y, seed=3)
        assert a == permutation_pvalue(x, y, seed=3)
        assert a != permutation_pvalue(x, y, seed=4)

    def test_strong_association_is_small(self):
        x = list(range(8))
        p = permutation_pvalue(x, [2.0 * v for v in x], seed=0)[0]
        assert p < 0.01

    def test_smoothing_floor(self):
        x = list(range(8))
        p = permutation_pvalue(x, [float(v) for v in x], seed=0)[0]
        assert p >= 1 / (1 + PERMUTATION_ROUNDS)

    def test_noise_is_large(self):
        x = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        y = [3.0, 1.0, 5.0, 2.0, 6.0, 4.0]
        p = permutation_pvalue(x, y, seed=1)[0]
        assert p > 0.05

    def test_rank_variant(self):
        x = [1.0, 2.0, 3.0, 4.0, 5.0]
        y = [math.exp(v) for v in x]
        p = permutation_pvalue(x, y, seed=2)[1]
        assert p < 0.05

    def test_pair_matches_the_scalar_reference(self, monkeypatch):
        rounds = 200
        monkeypatch.setattr(metrics, "PERMUTATION_ROUNDS", rounds)
        rng = np.random.default_rng(41)
        kinds = ("ties", "correlated", "uniform", "constant")
        for case in range(240):
            n = int(rng.integers(3, 10))
            kind = kinds[case % len(kinds)]
            if kind == "ties":
                x = rng.integers(0, 3, size=n).astype(float)
                y = rng.integers(0, 3, size=n).astype(float)
            elif kind == "correlated":
                x = rng.random(n)
                y = x + 0.3 * rng.random(n)
            elif kind == "uniform":
                x, y = rng.random(n), rng.random(n)
            else:
                x, y = rng.random(n), np.full(n, 0.25)
                if case % 8 == 7:
                    x, y = y, x
            x, y = [float(v) for v in x], [float(v) for v in y]
            seed = int(rng.integers(0, 2**32))
            pair = permutation_pvalue(x, y, seed)
            assert same_floats(pair, reference_pair(x, y, seed, rounds)), (x, y, seed)
            if kind == "constant":
                assert all(math.isnan(p) for p in pair)

    def test_full_rounds_match_the_scalar_reference(self):
        x = [0.2, 0.5, 0.5, 0.9, 0.1, 0.7, 0.3, 0.5]
        y = [0.3, 0.4, 0.6, 0.8, 0.2, 0.6, 0.4, 0.5]
        pair = permutation_pvalue(x, y, seed=7)
        assert pair == reference_pair(x, y, 7, PERMUTATION_ROUNDS)

    def test_rounds_across_blocks_match_the_scalar_reference(self, monkeypatch):
        # 2,500 rounds end mid-block, so every block but the first starts
        # from the order the one before it left behind.
        rounds = 2500
        monkeypatch.setattr(metrics, "PERMUTATION_ROUNDS", rounds)
        rng = np.random.default_rng(5)
        for n in range(3, 10):
            x = [float(v) for v in rng.integers(0, 3, size=n)]
            y = [round(float(v), 1) for v in rng.random(n)]
            pair = permutation_pvalue(x, y, seed=n)
            assert same_floats(pair, reference_pair(x, y, n, rounds)), (x, y)

    def test_a_round_at_the_threshold_matches_the_scalar_reference(self):
        # Swapping the first two y values gives an r about 1e-15 below the
        # observed one, where the batched sums and _pearson_r's round to
        # opposite sides of the hit threshold; seed 2 draws that order.
        x = [0.3, 0.4, 0.5, 0.6000000000000001, 0.7, 0.8, 0.9000000000000001, 1.0]
        y = [0.05, 0.050000000000008066, 0.3071428571428571, 0.43571428571428567,
             0.5642857142857143, 0.6928571428571428, 0.8214285714285714, 0.95]
        pair = permutation_pvalue(x, y, seed=2)
        assert pair == reference_pair(x, y, 2, PERMUTATION_ROUNDS)

    def test_a_rejected_draw_falls_back_to_the_scalar_stream(self, monkeypatch):
        rounds = 2500
        monkeypatch.setattr(metrics, "PERMUTATION_ROUNDS", rounds)
        draw_block = metrics.splitmix64_block

        def rejecting(seed, start, count):
            draws = draw_block(seed, start, count)
            if start > 0:
                # the first draw of a round is for randrange(5), whose
                # rejection limit is 2**64 - 2
                draws[0] = np.uint64(2**64 - 1)
            return draws

        fallbacks = []
        scalar_hits = metrics._scalar_hits

        def recording(*args):
            fallbacks.append(args)
            return scalar_hits(*args)

        monkeypatch.setattr(metrics, "splitmix64_block", rejecting)
        monkeypatch.setattr(metrics, "_scalar_hits", recording)
        x = [0.2, 0.5, 0.5, 0.9, 0.1]
        y = [0.3, 0.4, 0.6, 0.8, 0.4]
        pair = permutation_pvalue(x, y, seed=11)
        assert len(fallbacks) == 1
        assert pair == reference_pair(x, y, 11, rounds)

    def test_no_runtime_warnings(self):
        cases = [
            ([0.2, 0.5, 0.5, 0.9, 0.1, 0.7, 0.3, 0.5], [0.3, 0.4, 0.6, 0.8, 0.2, 0.6, 0.4, 0.5]),
            ([1.0, 1.0, 2.0], [2.0, 2.0, 1.0]),
            ([0.1, 0.4, 0.3, 0.2], [0.25] * 4),
            ([0.25] * 4, [0.1, 0.4, 0.3, 0.2]),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x, y in cases:
                permutation_pvalue(x, y, seed=0)


class TestAuc:
    def test_matches_brute_force_with_ties(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n_hi = int(rng.integers(1, 7))
            n_lo = int(rng.integers(1, 7))
            hi = list(rng.integers(0, 4, size=n_hi).astype(float))
            lo = list(rng.integers(0, 4, size=n_lo).astype(float))
            assert mann_whitney_auc(hi, lo) == pytest.approx(
                brute_auc(hi, lo), abs=1e-12
            )

    def test_perfect_separation(self):
        assert mann_whitney_auc([3.0, 4.0], [1.0, 2.0]) == 1.0
        assert mann_whitney_auc([1.0, 2.0], [3.0, 4.0]) == 0.0

    def test_all_tied_is_half(self):
        assert mann_whitney_auc([1.0, 1.0], [1.0, 1.0, 1.0]) == 0.5

    def test_empty_side_is_nan(self):
        assert math.isnan(mann_whitney_auc([], [1.0]))
        assert math.isnan(mann_whitney_auc([1.0], []))

    @settings(max_examples=50, deadline=None)
    @given(
        hi=st.lists(st.integers(-50, 50), min_size=1, max_size=8),
        lo=st.lists(st.integers(-50, 50), min_size=1, max_size=8),
    )
    def test_invariant_under_increasing_transform(self, hi, lo):
        # integer scores keep distinct values distinct after the transform
        before = mann_whitney_auc([float(v) for v in hi], [float(v) for v in lo])
        after = mann_whitney_auc(
            [math.atan(v) for v in hi], [math.atan(v) for v in lo]
        )
        assert after == pytest.approx(before, abs=1e-12)


class TestDifficultySeparation:
    PREDICTIONS = {
        "e1": 0.9,
        "e2": 0.8,
        "m1": 0.6,
        "m2": 0.55,
        "h1": 0.3,
        "h2": 0.7,
    }
    LABELS = {
        "e1": "Easy",
        "e2": "Easy",
        "m1": "Medium",
        "m2": "Medium",
        "h1": "Hard",
        "h2": "Hard",
    }

    def test_hard_vs_easy_ignores_medium(self):
        result = difficulty_separation(self.PREDICTIONS, self.LABELS)
        assert (result.n_hard, result.n_other) == (2, 2)
        assert result.auc == pytest.approx(
            brute_auc([0.9, 0.8], [0.3, 0.7]), abs=1e-12
        )

    def test_hard_vs_rest_pools_medium(self):
        result = difficulty_separation(
            self.PREDICTIONS, self.LABELS, mode="hard_vs_rest"
        )
        assert (result.n_hard, result.n_other) == (2, 4)
        assert result.auc == pytest.approx(
            brute_auc([0.9, 0.8, 0.6, 0.55], [0.3, 0.7]), abs=1e-12
        )

    def test_unlabeled_items_drop_out(self):
        predictions = dict(self.PREDICTIONS, mystery=0.5)
        result = difficulty_separation(predictions, self.LABELS)
        assert (result.n_hard, result.n_other) == (2, 2)

    def test_no_hard_items_is_nan(self):
        result = difficulty_separation({"e1": 0.9}, {"e1": "Easy"})
        assert math.isnan(result.auc)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            difficulty_separation({}, {}, mode="sideways")


def _response(item, chosen, correct, status="parsed", student=0, replicate=0):
    return SimulatedResponse(
        item_id=item,
        student_index=student,
        replicate=replicate,
        skill="Basic",
        raw="",
        chosen=chosen,
        correct=correct,
        parse_status=status,
    )


class TestDistractorMatch:
    def corpus(self):
        records = []
        for i in range(3):
            records.append(
                make_item_record(i, with_distribution=True)
            )
        records.append(make_item_record(3))  # no distribution
        return parse_corpus_records(records)

    def test_counts_matches_and_chance(self):
        corpus = self.corpus()
        items = [item.item_id for item in corpus.items]
        favored = {}
        for item in corpus.items[:3]:
            shares = item.real_choice_distribution
            favored[item.item_id] = max(
                item.wrong_letters(), key=lambda letter: shares.get(letter, 0.0)
            )
        responses = []
        # item 0: model agrees with the crowd, 2 votes to 1
        other = next(
            l for l in corpus.items[0].wrong_letters() if l != favored[items[0]]
        )
        responses += [
            _response(items[0], favored[items[0]], 0, student=0),
            _response(items[0], favored[items[0]], 0, student=1),
            _response(items[0], other, 0, student=2),
        ]
        # item 1: model favors a different wrong answer
        off = next(
            l for l in corpus.items[1].wrong_letters() if l != favored[items[1]]
        )
        responses += [
            _response(items[1], off, 0, student=0),
            _response(items[1], off, 0, student=1),
        ]
        # item 2: only correct answers, so it never enters
        responses += [_response(items[2], corpus.items[2].correct_key, 1)]
        # item 3 has no observed distribution; wrong picks are skipped
        responses += [_response(corpus.items[3].item_id, "A", 0)]
        result = distractor_match(responses, corpus)
        assert result.n_items == 2
        assert result.match_rate == pytest.approx(0.5)
        assert result.chance_wrong_only == pytest.approx(1 / 3)
        assert result.chance_all_choices == pytest.approx(1 / 4)
        assert result.observed_ties == 0

    def test_model_tie_is_counted_and_letter_broken(self):
        corpus = self.corpus()
        item = corpus.items[0]
        wrong = item.wrong_letters()
        responses = [
            _response(item.item_id, wrong[0], 0, student=0),
            _response(item.item_id, wrong[1], 0, student=1),
        ]
        result = distractor_match(responses, corpus)
        assert result.n_items == 1
        assert result.model_ties == 1
        # earliest letter wins the tie
        expected = max(
            wrong, key=lambda letter: item.real_choice_distribution.get(letter, 0.0)
        )
        assert result.match_rate == float(wrong[0] == expected)

    def test_failed_parses_are_ignored(self):
        corpus = self.corpus()
        item = corpus.items[0]
        responses = [
            _response(item.item_id, None, 0, status="failed"),
        ]
        result = distractor_match(responses, corpus)
        assert result.n_items == 0
        assert math.isnan(result.match_rate)
        assert math.isnan(result.chance_wrong_only) and math.isnan(result.chance_all_choices)
        assert result.model_ties == result.observed_ties == 0

    def test_the_tally_passes_every_reply_through_and_counts_wrong_choices(self):
        corpus = self.corpus()
        first, second = (item.item_id for item in corpus.items[:2])  # keys A and B
        responses = [
            _response(second, "C", 0),
            _response(first, "B", 0, student=1),
            _response(first, "A", 1, student=2),  # right, so not a distractor
            _response(first, None, 0, status="failed", student=3),  # failed parses never count
            _response(first, None, 0, student=4),  # no letter, nothing to count
            _response(second, "C", 0, status="recovered", student=5),
            _response(first, "D", 0, student=6),
        ]
        counts = {}
        passed = tally_wrong_choices(iter(responses), counts)
        assert counts == {}  # nothing is read before it is consumed
        assert list(passed) == responses
        assert counts == {second: {"C": 2}, first: {"B": 1, "D": 1}}
        assert list(counts) == [second, first]
        assert distractor_agreement(counts, corpus) == distractor_match(responses, corpus)


class TestSkillCorrectness:
    def test_rates_by_group(self):
        matrix = ResponseMatrix(
            item_ids=("q0", "q1"),
            student_indices=(0, 1, 2),
            skills=("Basic", "Basic", "Advanced"),
            data=np.array([[1, 0], [1, 1], [1, 1]], dtype=np.int8),
            mask=np.array([[True, True], [True, False], [True, True]]),
        )
        rates = skill_correctness(matrix)
        assert rates["Basic"] == pytest.approx(2 / 3)
        assert rates["Advanced"] == pytest.approx(1.0)

    def test_keys_follow_the_fit_groups(self):
        skills = ("Advanced", "Zeta", "Basic", "BelowBasic", "Advanced", "Proficient")
        rng = np.random.default_rng(3)
        matrix = ResponseMatrix(
            item_ids=("q0", "q1", "q2"),
            student_indices=tuple(range(len(skills))),
            skills=skills,
            data=rng.integers(0, 2, size=(len(skills), 3)).astype(np.int8),
            mask=np.ones((len(skills), 3), dtype=bool),
        )
        rates = skill_correctness(matrix)
        assert list(rates) == list(fit_rasch(matrix).beta)
        assert list(rates) == ["BelowBasic", "Basic", "Proficient", "Advanced", "Zeta"]
        for label, rate in rates.items():
            rows = [i for i, skill in enumerate(skills) if skill == label]
            assert rate == matrix.data[rows].mean()


class TestSubgroupCorrelations:
    def test_tracks_subgroup_rates(self):
        item_ids = tuple(f"q{j}" for j in range(5))
        data = np.array(
            [
                [1, 1, 1, 0, 0],
                [1, 1, 0, 0, 0],
                [1, 0, 0, 0, 0],
                [1, 1, 1, 1, 0],
            ],
            dtype=np.int8,
        )
        matrix = ResponseMatrix(
            item_ids=item_ids,
            student_indices=(0, 1, 2, 3),
            skills=("Basic",) * 4,
            data=data,
            mask=np.ones_like(data, dtype=bool),
        )
        groups = {"female": [0, 1], "male": [2, 3]}
        female_rates = {q: float(data[:2, j].mean()) for j, q in enumerate(item_ids)}
        male_rates = {q: float(data[2:, j].mean()) for j, q in enumerate(item_ids)}
        results = subgroup_correlations(
            matrix, groups, {"female": female_rates, "male": male_rates}
        )
        assert results["female"].r == pytest.approx(1.0)
        assert results["male"].r == pytest.approx(1.0)

    def test_sparse_overlap_is_dropped(self):
        matrix = ResponseMatrix(
            item_ids=("q0", "q1"),
            student_indices=(0,),
            skills=("Basic",),
            data=np.ones((1, 2), dtype=np.int8),
            mask=np.ones((1, 2), dtype=bool),
        )
        results = subgroup_correlations(
            matrix, {"female": [0]}, {"female": {"q0": 0.5, "q1": 0.6}}
        )
        assert results == {}  # two overlapping items is below the floor


class TestEnsemble:
    def test_uniform_average(self):
        merged = ensemble_predictions(
            [{"a": 0.2, "b": 0.4}, {"a": 0.6, "b": 0.8}]
        )
        assert merged == {"a": pytest.approx(0.4), "b": pytest.approx(0.6)}

    def test_weights(self):
        merged = ensemble_predictions(
            [{"a": 0.0}, {"a": 1.0}], weights=[1.0, 3.0]
        )
        assert merged["a"] == pytest.approx(0.75)

    def test_partial_coverage_renormalizes(self):
        merged = ensemble_predictions(
            [{"a": 0.2}, {"a": 0.6, "b": 0.9}], weights=[1.0, 1.0]
        )
        assert merged["a"] == pytest.approx(0.4)
        assert merged["b"] == pytest.approx(0.9)

    def test_weight_errors(self):
        with pytest.raises(ValueError):
            ensemble_predictions([{"a": 1.0}], weights=[1.0, 2.0])
        with pytest.raises(ValueError):
            ensemble_predictions([{"a": 1.0}], weights=[-1.0])
        for weights in ([math.inf, 1.0], [math.nan, 1.0], [0.0, 0.0]):
            with pytest.raises(ValueError, match=r"weights must be .*: \["):
                ensemble_predictions([{"a": 0.2}, {"a": 0.6}], weights=weights)

    def test_empty(self):
        assert ensemble_predictions([]) == {}


def test_subgroup_wiring_with_diverse_roster():
    # smoke the pieces used together: roster demographics to index groups
    roster = sample_classroom(16, SkillDistribution.default(), "diverse", seed=5)
    groups = {}
    for profile in roster:
        gender, _ = profile.name_demographics
        groups.setdefault(gender.lower(), []).append(profile.student_index)
    assert set(groups) == {"female", "male"}
    assert len(groups["female"]) == 8
