"""R-squared, pooled R-squared, and level summaries."""

import math

import numpy as np
import pytest

import scalelaws as sl
from scalelaws.metrics import EvalPairs


def pairs(pred, obs):
    return EvalPairs.of(pred, obs)


class TestRSquared:
    def test_perfect_fit(self):
        assert sl.r_squared(pairs([1, 2, 3], [1, 2, 3])) == 1.0

    def test_mean_predictor_is_zero(self):
        assert sl.r_squared(pairs([2, 2, 2], [1, 2, 3])) == 0.0

    def test_hand_value(self):
        # SS_res = 1, SS_tot = 2
        assert abs(sl.r_squared(pairs([1, 2, 4], [1, 2, 3])) - 0.5) <= 1e-15

    def test_can_be_negative(self):
        assert sl.r_squared(pairs([10, -10, 10], [1, 2, 3])) < 0

    def test_undefined_variance(self):
        with pytest.raises(sl.UndefinedVarianceError):
            sl.r_squared(pairs([1, 2, 3], [5, 5, 5]))

    def test_too_short(self):
        with pytest.raises(sl.DataValidationError):
            sl.r_squared(pairs([1.0], [2.0]))

    @pytest.mark.parametrize("pred,obs,what", [
        ([1e200, 1.0, 2.0], [1.0, 2.0, 3.0], "residual sum of squares"),
        ([1.0, 2.0], [1e200, -1e200], "total sum of squares"),
        # here o - mean is -inf, which squares to inf without raising
        ([1.0, 2.0, 3.0], [1.7e308, -1.7e308, 1.7e308], "total sum of squares"),
        ([1.0, 2.0], [1.7e308, 1.7e308], "sum of observed values"),
        ([1e150, 1.0, 2.0], [1e-100, 2e-100, 3e-100], "ratio"),
    ])
    def test_overflow_is_a_named_error(self, pred, obs, what):
        with pytest.raises(sl.ScoreOverflowError, match=what):
            sl.r_squared(pairs(pred, obs))

    def test_huge_but_finite_residuals_still_score(self):
        r2 = sl.r_squared(pairs([1e153, 1.0, 2.0], [1.0, 2.0, 3.0]))
        assert math.isfinite(r2) and r2 < -1e305

    def test_validation(self):
        with pytest.raises(sl.DataValidationError):
            EvalPairs((1.0, 2.0), (1.0,))
        with pytest.raises(sl.DataValidationError):
            EvalPairs((), ())
        with pytest.raises(sl.DataValidationError):
            EvalPairs((float("nan"), 1.0), (1.0, 2.0))


class TestPooled:
    def test_single_group_identity(self):
        group = pairs([1, 2, 4], [1, 2, 3])
        assert sl.pooled_r_squared([group]) == sl.r_squared(group)

    def test_two_perfect_groups(self):
        groups = [pairs([1, 2], [1, 2]), pairs([10, 11], [10, 11])]
        assert sl.pooled_r_squared(groups) == 1.0

    def test_hand_concatenation_value(self):
        """obs [0,1]+[10,11], pred [0,1]+[11,10]: SS_res = 2, global mean
        5.5, SS_tot = 2*(5.5^2 + 4.5^2) = 101."""
        groups = [pairs([0, 1], [0, 1]), pairs([11, 10], [10, 11])]
        expected = 1.0 - 2.0 / 101.0
        assert sl.pooled_r_squared(groups) == pytest.approx(expected, abs=1e-15)

    def test_equals_manual_concatenation(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            groups = []
            all_pred, all_obs = [], []
            for _ in range(int(rng.integers(1, 5))):
                size = int(rng.integers(1, 8))
                pred = rng.normal(5, 2, size)
                obs = rng.normal(5, 2, size)
                groups.append(pairs(pred, obs))
                all_pred.extend(pred)
                all_obs.extend(obs)
            if len(all_obs) < 2:
                continue
            assert sl.pooled_r_squared(groups) == sl.r_squared(pairs(all_pred, all_obs))

    def test_offset_groups_are_penalized(self):
        """Per-group perfect means are not enough: a constant per-group
        offset counts against the pooled score."""
        groups = [pairs([1.5, 1.5], [1, 2]), pairs([10.5, 10.5], [10, 11])]
        pooled = sl.pooled_r_squared(groups)
        assert pooled < 1.0
        # both per-group scores are 0 (the group-mean predictor);
        # pooled is far higher because the global mean is much worse.
        assert pooled > 0.9

    def test_joint_permutation_invariance(self):
        rng = np.random.default_rng(3)
        pred = rng.normal(0, 1, 40)
        obs = rng.normal(0, 1, 40)
        base = sl.r_squared(pairs(pred, obs))
        for _ in range(5):
            order = rng.permutation(40)
            assert sl.r_squared(pairs(pred[order], obs[order])) == base

    def test_pooled_never_exceeds_one(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            pred = rng.normal(0, 3, 10)
            obs = rng.normal(0, 3, 10)
            assert sl.pooled_r_squared([pairs(pred, obs)]) <= 1.0

    def test_copies_of_one_group(self):
        group = pairs([1, 2, 4], [1, 2, 3])
        pooled = sl.pooled_r_squared([group, group, group])
        assert pooled == pytest.approx(sl.r_squared(group), rel=1e-14)

    def test_empty_groups_rejected(self):
        with pytest.raises(sl.DataValidationError):
            sl.pooled_r_squared([])


class TestSummarizeLevels:
    def test_constant_scores(self):
        assert sl.summarize_levels([(40, 0.9), (30, 0.9), (20, 0.9)]) == (0.9, 0.0)

    def test_population_std(self):
        mean, std = sl.summarize_levels([(1, 1.0), (2, 0.0)])
        assert mean == 0.5
        assert std == 0.5

    def test_single_score(self):
        assert sl.summarize_levels([(40, 0.77)]) == (0.77, 0.0)

    def test_empty_rejected(self):
        with pytest.raises(sl.DataValidationError):
            sl.summarize_levels([])

    @pytest.mark.parametrize("scores", [
        [(0, -1e200), (1, 0.5)],  # the squared deviation overflows
        [(0, -1.5e308), (1, -1.5e308)],  # the sum overflows
    ])
    def test_overflow_is_a_named_error(self, scores):
        with pytest.raises(sl.ScoreOverflowError, match="level scores"):
            sl.summarize_levels(scores)

    def test_matches_fsum_definition(self):
        rng = np.random.default_rng(5)
        scores = [(i, float(v)) for i, v in enumerate(rng.normal(0.8, 0.2, 9))]
        mean, std = sl.summarize_levels(scores)
        values = [v for _, v in scores]
        mean_ref = math.fsum(values) / len(values)
        var_ref = math.fsum((v - mean_ref) ** 2 for v in values) / len(values)
        assert mean == mean_ref
        assert std == math.sqrt(var_ref)
