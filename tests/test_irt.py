import json
import math

import numpy as np
import pytest

from classim import irt
from classim.irt import (
    RIDGE,
    TOL,
    SufficientStats,
    data_log_likelihood,
    fit_rasch,
    gradients,
    penalized_log_likelihood,
    rasch_probability,
    sample_rasch_matrix,
)
from classim.responses import ResponseMatrix

BETAS = {
    "BelowBasic": -1.0,
    "Basic": -0.3,
    "Proficient": 0.6,
    "Advanced": 1.3,
}
COUNTS = {"BelowBasic": 30, "Basic": 42, "Proficient": 30, "Advanced": 18}


def centered_deltas(n, seed=11, scale=1.2):
    rng = np.random.default_rng(seed)
    values = rng.normal(0.0, scale, size=n)
    values -= values.mean()
    return {f"q{i:03d}": float(v) for i, v in enumerate(values)}


class TestProbability:
    def test_midpoint(self):
        assert rasch_probability(0.0, 0.0) == 0.5

    def test_matches_logistic(self):
        for beta, delta in [(1.0, 0.0), (-0.4, 0.9), (2.5, -1.5)]:
            expected = 1.0 / (1.0 + math.exp(delta - beta))
            assert rasch_probability(beta, delta) == pytest.approx(expected)

    def test_monotone_in_ability(self):
        deltas = 0.3
        probs = [rasch_probability(b, deltas) for b in (-2, -1, 0, 1, 2)]
        assert probs == sorted(probs)

    def test_extreme_gaps_do_not_overflow(self):
        assert rasch_probability(500.0, -500.0) == 1.0
        assert rasch_probability(-500.0, 500.0) == 0.0

    def test_broadcasting(self):
        beta = np.array([-1.0, 1.0])
        delta = np.array([0.0, 0.5, -0.5])
        grid = rasch_probability(beta[:, None], delta[None, :])
        assert grid.shape == (2, 3)
        assert grid[1, 2] == pytest.approx(rasch_probability(1.0, -0.5))


class TestSufficientStats:
    def test_counts_match_brute_force(self):
        rng = np.random.default_rng(3)
        data = (rng.random((10, 6)) < 0.6).astype(np.int8)
        mask = rng.random((10, 6)) < 0.9
        skills = tuple(
            ["Basic"] * 4 + ["Advanced"] * 3 + ["BelowBasic"] * 3
        )
        matrix = ResponseMatrix(
            item_ids=tuple(f"q{j}" for j in range(6)),
            student_indices=tuple(range(10)),
            skills=skills,
            data=data,
            mask=mask,
        )
        stats = SufficientStats.from_matrix(matrix)
        assert stats.group_labels == ("BelowBasic", "Basic", "Advanced")
        for g, label in enumerate(stats.group_labels):
            rows = [i for i, s in enumerate(skills) if s == label]
            for j in range(6):
                observed = [i for i in rows if mask[i, j]]
                assert stats.n[g, j] == len(observed)
                assert stats.s[g, j] == sum(int(data[i, j]) for i in observed)

    def test_unknown_labels_sort_after_canonical(self):
        matrix = ResponseMatrix(
            item_ids=("q0",),
            student_indices=(0, 1, 2),
            skills=("zeta", "Proficient", "alpha"),
            data=np.ones((3, 1), dtype=np.int8),
            mask=np.ones((3, 1), dtype=bool),
        )
        stats = SufficientStats.from_matrix(matrix)
        assert stats.group_labels == ("Proficient", "alpha", "zeta")


def small_matrix(seed=5):
    deltas = centered_deltas(8, seed=seed)
    return sample_rasch_matrix(BETAS, deltas, COUNTS, seed=seed)


def small_stats(seed=5):
    return SufficientStats.from_matrix(small_matrix(seed))


class TestGradients:
    def test_matches_finite_differences(self):
        stats = small_stats()
        rng = np.random.default_rng(7)
        beta = rng.normal(0, 1, size=len(stats.group_labels))
        delta = rng.normal(0, 1, size=len(stats.item_ids))
        ridge = 1e-3
        grad_b, grad_d = gradients(beta, delta, stats, ridge)
        h = 1e-5
        for g in range(len(beta)):
            up, down = beta.copy(), beta.copy()
            up[g] += h
            down[g] -= h
            numeric = (
                penalized_log_likelihood(up, delta, stats, ridge)
                - penalized_log_likelihood(down, delta, stats, ridge)
            ) / (2 * h)
            assert grad_b[g] == pytest.approx(numeric, rel=1e-6, abs=1e-6)
        for j in range(len(delta)):
            up, down = delta.copy(), delta.copy()
            up[j] += h
            down[j] -= h
            numeric = (
                penalized_log_likelihood(beta, up, stats, ridge)
                - penalized_log_likelihood(beta, down, stats, ridge)
            ) / (2 * h)
            assert grad_d[j] == pytest.approx(numeric, rel=1e-6, abs=1e-6)


class TestFit:
    def test_recovers_generating_parameters(self):
        deltas = centered_deltas(40, seed=2)
        matrix = sample_rasch_matrix(BETAS, deltas, COUNTS, seed=9)
        result = fit_rasch(matrix)
        assert result.converged
        fitted = np.array([result.delta[i] for i in deltas])
        truth = np.array(list(deltas.values()))
        r = np.corrcoef(fitted, truth)[0, 1]
        assert r > 0.9
        ordered = [result.beta[label] for label in BETAS]
        assert ordered == sorted(ordered)

    def test_gradient_is_small_at_solution(self):
        matrix = small_matrix(seed=13)
        stats = SufficientStats.from_matrix(matrix)
        result = fit_rasch(matrix)
        assert result.converged
        # centering moves the iterate off the penalized optimum by a
        # translation, which the data term ignores; verify stationarity on
        # the recentered fit directly against the ridge-tilted gradient
        beta = np.array([result.beta[g] for g in stats.group_labels])
        delta = np.array([result.delta[i] for i in stats.item_ids])
        grad_b, grad_d = gradients(beta, delta, stats, RIDGE)
        slack = RIDGE * (abs(beta).max() + abs(delta).max()) + TOL
        assert float(np.abs(grad_b).max()) < slack
        assert float(np.abs(grad_d).max()) < slack

    def test_deterministic(self):
        matrix = small_matrix(seed=21)
        first = fit_rasch(matrix)
        second = fit_rasch(matrix)
        assert first == second

    def test_mean_zero_difficulties(self):
        result = fit_rasch(small_matrix(seed=4))
        assert result.to_json_dict()["constraint"] == "mean_zero_delta"
        assert float(np.mean(list(result.delta.values()))) == pytest.approx(0.0, abs=1e-12)

    def test_log_likelihood_is_data_term(self):
        matrix = small_matrix(seed=8)
        stats = SufficientStats.from_matrix(matrix)
        result = fit_rasch(matrix)
        beta = np.array([result.beta[g] for g in stats.group_labels])
        delta = np.array([result.delta[i] for i in stats.item_ids])
        assert result.log_likelihood == pytest.approx(
            data_log_likelihood(beta, delta, stats)
        )
        # likelihood of the truth should not beat the fit by much
        truth_ll = data_log_likelihood(
            np.array(list(BETAS.values())),
            np.array([0.0] * len(stats.item_ids)),
            stats,
        )
        assert result.log_likelihood >= truth_ll - 1e-6 * abs(truth_ll) - 5.0

    def test_perfect_item_stays_finite(self):
        matrix = ResponseMatrix(
            item_ids=("q0",),
            student_indices=tuple(range(40)),
            skills=("Basic",) * 20 + ("Advanced",) * 20,
            data=np.ones((40, 1), dtype=np.int8),  # everyone right: ridge must cap it
            mask=np.ones((40, 1), dtype=bool),
        )
        result = fit_rasch(matrix)
        assert math.isfinite(result.delta["q0"])
        assert all(math.isfinite(v) for v in result.beta.values())

    def test_sweep_budget_reported(self, monkeypatch):
        monkeypatch.setattr(irt, "MAX_ITERATIONS", 2)
        result = fit_rasch(small_matrix(seed=30))
        assert result.iterations == 2
        assert not result.converged

    def test_two_probability_tables_per_sweep(self, monkeypatch):
        calls = []

        def counted(beta, delta):
            calls.append(1)
            return rasch_probability(beta, delta)

        matrix = small_matrix(seed=30)
        monkeypatch.setattr(irt, "rasch_probability", counted)
        result = fit_rasch(matrix)
        # one warm-start table, two per sweep, one for the log-likelihood
        assert len(calls) == 2 * result.iterations + 2

    def test_empty_matrix_rejected(self):
        empty = ResponseMatrix(
            (), (), (), np.zeros((0, 0), dtype=np.int8), np.zeros((0, 0), dtype=bool)
        )
        with pytest.raises(ValueError):
            fit_rasch(empty)


class TestFitResultIO:
    def test_round_trip(self, tmp_path):
        result = fit_rasch(small_matrix(seed=17))
        path = str(tmp_path / "fit.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(result.to_json_dict(), handle)
        with open(path, "r", encoding="utf-8") as handle:
            assert json.load(handle) == result.to_json_dict()

    def test_json_field_names(self, tmp_path):
        result = fit_rasch(small_matrix(seed=17))
        payload = result.to_json_dict()
        assert payload["lambda"] == RIDGE
        assert payload["constraint"] == "mean_zero_delta"
        assert set(payload["beta"]) == set(BETAS)


class TestSampling:
    def test_shape_and_layout(self):
        deltas = centered_deltas(5)
        matrix = sample_rasch_matrix(BETAS, deltas, COUNTS, seed=1)
        assert matrix.n_students == sum(COUNTS.values())
        assert matrix.n_items == 5
        assert matrix.skills[:30] == tuple(["BelowBasic"] * 30)
        assert matrix.mask.all()

    def test_seed_determinism(self):
        deltas = centered_deltas(5)
        a = sample_rasch_matrix(BETAS, deltas, COUNTS, seed=6)
        b = sample_rasch_matrix(BETAS, deltas, COUNTS, seed=6)
        c = sample_rasch_matrix(BETAS, deltas, COUNTS, seed=7)
        assert np.array_equal(a.data, b.data)
        assert not np.array_equal(a.data, c.data)

    def test_rates_track_probabilities(self):
        deltas = {"easy": -2.0, "hard": 2.0}
        counts = {"Proficient": 4000}
        matrix = sample_rasch_matrix({"Proficient": 0.5}, deltas, counts, seed=3)
        rates = matrix.item_success_rates()
        assert rates[0] == pytest.approx(rasch_probability(0.5, -2.0), abs=0.03)
        assert rates[1] == pytest.approx(rasch_probability(0.5, 2.0), abs=0.03)
