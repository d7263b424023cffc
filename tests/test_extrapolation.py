"""Split construction, held-out scoring, and the progressive sweep."""

import json

import numpy as np
import pytest

import scalelaws as sl
from scalelaws import extrapolation
from scalelaws.extrapolation import SweepCell
from scalelaws.fitter import FitConfig

from synth import (
    MODEL_SIZES,
    SNR_LEVELS,
    TOKEN_COUNTS,
    shannon_level_params,
    shannon_level_set,
)


def keys(oset):
    return sorted(o.key() for o in oset)


class TestSplitSpec:
    def test_mode_requirements(self):
        with pytest.raises(sl.DataValidationError):
            sl.SplitSpec("token")
        with pytest.raises(sl.DataValidationError):
            sl.SplitSpec("model", j=3)
        with pytest.raises(sl.DataValidationError):
            sl.SplitSpec("joint", j=3)
        with pytest.raises(sl.DataValidationError):
            sl.SplitSpec("nope", j=1)
        assert sl.SplitSpec("joint", j=3, k=2).label() == "k=2,j=3"

    def test_joint_full_test_only_in_joint_mode(self):
        with pytest.raises(sl.DataValidationError, match="^token mode takes no joint_full_test$"):
            sl.SplitSpec("token", j=3, joint_full_test=True)
        with pytest.raises(sl.DataValidationError, match="^model mode takes no joint_full_test$"):
            sl.SplitSpec("model", k=2, joint_full_test=True)
        spec = sl.SplitSpec("joint", j=3, k=2, joint_full_test=True)
        assert spec.label() == "k=2,j=3"
        assert spec.to_dict() == {"mode": "joint", "j": 3, "k": 2, "joint_full_test": True}


class TestMakeSplit:
    def test_token_counting_6x16x6(self):
        """j=12 on the 6x16x6 design trains on 432 rows, tests on 144."""
        data = shannon_level_set()
        train, test = sl.make_split(data, sl.SplitSpec("token", j=12))
        assert (len(train), len(test)) == (432, 144)
        assert sorted(keys(train) + keys(test)) == keys(data)
        horizon = sorted(set(TOKEN_COUNTS))[11]
        assert all(o.d_tokens <= horizon for o in train)
        assert all(o.d_tokens > horizon for o in test)

    def test_model_split_k5_keeps_largest_for_test(self):
        data = shannon_level_set()
        train, test = sl.make_split(data, sl.SplitSpec("model", k=5))
        assert {o.n_params for o in test} == {max(MODEL_SIZES)}
        assert len(test) == 16 * len(SNR_LEVELS)
        assert sorted(keys(train) + keys(test)) == keys(data)

    def test_joint_split_k5_j12(self):
        """Test set: the largest model at the 4 token counts beyond the
        training horizon, per level."""
        data = shannon_level_set()
        train, test = sl.make_split(data, sl.SplitSpec("joint", j=12, k=5))
        assert len(train) == 5 * 12 * 6
        assert len(test) == 1 * 4 * 6
        assert {o.n_params for o in test} == {max(MODEL_SIZES)}
        horizon = max(o.d_tokens for o in train)
        assert all(o.d_tokens > horizon for o in test)
        # disjoint, and together contained in the input
        assert not (set(keys(train)) & set(keys(test)))
        assert set(keys(train) + keys(test)) <= set(keys(data))

    def test_joint_full_test_flag(self):
        data = shannon_level_set()
        _, test = sl.make_split(data, sl.SplitSpec("joint", j=12, k=5, joint_full_test=True))
        assert len(test) == 16 * 6  # every held-out-model observation

    def test_token_exhausting_checkpoints_is_unsatisfiable(self):
        data = shannon_level_set()
        with pytest.raises(sl.SplitError, match="empty test set"):
            sl.make_split(data, sl.SplitSpec("token", j=16))
        with pytest.raises(sl.SplitError, match="unsatisfiable"):
            sl.make_split(data, sl.SplitSpec("token", j=17))

    def test_model_split_needs_spare_size(self):
        data = shannon_level_set()
        with pytest.raises(sl.SplitError):
            sl.make_split(data, sl.SplitSpec("model", k=6))

    def test_nesting_and_joint_containment(self):
        """Random designs: token/model nesting in j and k, and the joint
        train set inside the intersection of the single-axis trains."""
        rng = np.random.default_rng(8)
        for _ in range(25):
            n_models = int(rng.integers(2, 7))
            n_ckpts = int(rng.integers(4, 12))
            n_levels = int(rng.integers(1, 4))
            sizes = np.sort(rng.uniform(1e8, 1e10, n_models))
            tokens = np.sort(rng.uniform(1e9, 1e11, n_ckpts))
            levels = [10.0 * (i + 1) for i in range(n_levels)]
            observations = tuple(
                sl.Observation(f"m{i}", float(n), float(d), 1.0 + i, x_level=level)
                for i, n in enumerate(sizes)
                for d in tokens
                for level in levels
            )
            data = sl.ObservationSet(observations)

            j1 = int(rng.integers(1, n_ckpts - 1))
            j2 = int(rng.integers(j1, n_ckpts))
            t1, _ = sl.make_split(data, sl.SplitSpec("token", j=j1))
            t2, _ = sl.make_split(data, sl.SplitSpec("token", j=j2))
            assert set(keys(t1)) <= set(keys(t2))

            k1 = int(rng.integers(1, n_models))
            k2 = int(rng.integers(k1, n_models))
            m1, _ = sl.make_split(data, sl.SplitSpec("model", k=k1))
            m2, _ = sl.make_split(data, sl.SplitSpec("model", k=k2))
            assert set(keys(m1)) <= set(keys(m2))

            jt, _ = sl.make_split(data, sl.SplitSpec("joint", j=j1, k=k1))
            assert set(keys(jt)) <= set(keys(t1)) & set(keys(m1))


FAST_CONFIG = FitConfig(starts=4, random_starts=8, seed=0,
                        objective_space="log_loss", max_iters=300)


class TestRunExtrapolation:
    def test_self_consistency_small(self):
        """Per-level noiseless capacity-law data is predicted essentially
        perfectly on the held-out side."""
        data = shannon_level_set(levels=[40.0, 20.0],
                                 n_values=MODEL_SIZES, d_values=TOKEN_COUNTS)
        law = sl.get_law("shannon_full")
        report = sl.run_extrapolation(
            data, law, sl.SplitSpec("joint", j=12, k=5), FAST_CONFIG
        )
        assert report.fit_mode == "per_level"
        assert report.pooled_r2 >= 1 - 1e-6
        assert report.train_count == 5 * 12 * 2
        assert report.test_count == 4 * 2
        assert report.train_count + report.test_count + report.excluded_count == len(data)
        assert len(report.per_level_fit) == 2
        for level, r2 in report.per_level_r2:
            assert r2 is None or r2 <= 1.0

    def test_pooled_matches_manual_concatenation(self):
        data = shannon_level_set(levels=[40.0, 20.0])
        law = sl.get_law("shannon_full")
        spec = sl.SplitSpec("token", j=12)
        report = sl.run_extrapolation(data, law, spec, FAST_CONFIG)
        train, test = sl.make_split(data, spec)
        fits = {f_level: f for (f_level, _), f in
                zip(sl.group_by_level(sl.make_split(data, spec)[0]), report.per_level_fit)}
        preds, obs = [], []
        for level, group in sl.group_by_level(test):
            pred = sl.predict_dataset(law, fits[level].params, group)
            preds.extend(pred)
            obs.extend(group.losses())
        manual = sl.r_squared(sl.EvalPairs.of(preds, obs))
        assert report.pooled_r2 == manual

    def test_mean_predictor_is_poor(self):
        """Forcing test predictions to the per-level train mean scores
        below 1 whenever the test side varies."""
        data = shannon_level_set(levels=[40.0, 20.0])
        spec = sl.SplitSpec("joint", j=12, k=5)
        train, test = sl.make_split(data, spec)
        train_means = {level: float(np.mean(g.losses()))
                       for level, g in sl.group_by_level(train)}
        groups = []
        for level, g in sl.group_by_level(test):
            pred = np.full(len(g), train_means[level])
            groups.append(sl.EvalPairs.of(pred, g.losses()))
        score = sl.pooled_r_squared(groups)
        assert score < 1.0

    def test_joint_x_mode_for_x_laws(self):
        law = sl.get_law("shannon_extended")
        params = shannon_level_params(40.0)
        ext_params = sl.ParamVector("shannon_extended", params.values)
        observations = []
        for level in [1.0, 2.0, 4.0]:
            for i, n in enumerate(MODEL_SIZES):
                for d in TOKEN_COUNTS:
                    loss = sl.predict_loss(law, ext_params, n / 1e9, d / 1e9, level)
                    observations.append(
                        sl.Observation(f"m{i}", float(n), float(d), loss, x_level=level)
                    )
        data = sl.ObservationSet(tuple(observations),
                                 normalization=sl.Normalization(1e9, 1e9))
        report = sl.run_extrapolation(
            data, law, sl.SplitSpec("model", k=5), FAST_CONFIG
        )
        assert report.fit_mode == "joint_x"
        assert len(report.per_level_fit) == 1
        assert report.pooled_r2 >= 1 - 1e-6

    def test_joint_x_rejected_for_x_free_law(self):
        data = shannon_level_set(levels=[40.0])
        with pytest.raises(sl.DataValidationError, match="joint_x"):
            sl.run_extrapolation(
                data, sl.get_law("chinchilla"), sl.SplitSpec("token", j=12),
                FAST_CONFIG, fit_mode="joint_x",
            )


class TestProgressiveSweep:
    def test_single_cell_matches_run(self):
        data = shannon_level_set(levels=[40.0, 20.0])
        law = sl.get_law("shannon_full")
        spec = sl.SplitSpec("token", j=12)
        sweep = sl.progressive_sweep(data, [law], [spec], FAST_CONFIG)
        report = sl.run_extrapolation(data, law, spec, FAST_CONFIG)
        assert sweep.cells[0][0].pooled_r2 == report.pooled_r2

    def test_column_layout(self):
        data = shannon_level_set(levels=[40.0])
        specs = [sl.SplitSpec("token", j=j) for j in (8, 12, 15)]
        laws = [sl.get_law("chinchilla"), sl.get_law("openai")]
        sweep = sl.progressive_sweep(data, laws, specs,
                                     FitConfig(starts=4, seed=0, max_iters=150))
        assert [s.label() for s in sweep.specs] == ["j=8", "j=12", "j=15"]
        assert sweep.law_ids == ("chinchilla", "openai")
        text = sweep.to_text()
        assert "j=8" in text and "chinchilla" in text

    def test_per_cell_errors_recorded(self):
        """An X-aware law on x-free data records an error, not a crash."""
        observations = tuple(
            sl.Observation(f"m{i}", float(n), float(d), 2.0 + i)
            for i, n in enumerate(MODEL_SIZES)
            for d in TOKEN_COUNTS
        )
        data = sl.ObservationSet(observations, normalization=sl.Normalization(1e9, 1e9))
        sweep = sl.progressive_sweep(
            data,
            [sl.get_law("qid")],
            [sl.SplitSpec("token", j=12)],
            FitConfig(starts=2, max_iters=50),
        )
        cell = sweep.cells[0][0]
        assert cell.pooled_r2 is None
        assert cell.error

    def test_serialization_deterministic(self):
        data = shannon_level_set(levels=[40.0])
        sweep1 = sl.progressive_sweep(
            data, [sl.get_law("chinchilla")], [sl.SplitSpec("token", j=12)],
            FitConfig(starts=4, seed=3, max_iters=150),
        )
        sweep2 = sl.progressive_sweep(
            data, [sl.get_law("chinchilla")], [sl.SplitSpec("token", j=12)],
            FitConfig(starts=4, seed=3, max_iters=150),
        )
        assert json.dumps(sweep1.to_dict(), sort_keys=True) == \
            json.dumps(sweep2.to_dict(), sort_keys=True)


class TestTextTables:
    """Every column is wider than its longest cell, so splitting a
    rendered row on whitespace gives back its cells."""

    def test_comparison_rows_split_into_cells(self):
        table = sl.ComparisonTable(
            levels=("10.0", "40.0"), grouped_by_level=True, fit_mode=None, rows=(
                ("shannon_full", ((1.0, None), (1.0, None)), 1.0, 0.0),
                ("chinchilla", ((0.4946, None), (0.9749, None)), 0.68425, 0.18),
                ("qid", ((-11210081.8532, None), (None, "failed")), -11210081.8532, 0.0),
            ))
        assert [line.split() for line in table.to_text().splitlines()] == [
            ["Law", "10.0", "40.0", "Avg", "±", "Std"],
            ["shannon_full", "1.0000*", "1.0000*", "1.0000", "±", "0.00"],
            ["chinchilla", "0.4946", "0.9749", "0.6843", "±", "0.18"],
            ["qid", "-1.121e+07", "n/a", "-1.121e+07", "±", "0.00"],
        ]

    def test_sweep_rows_split_into_cells(self):
        specs = tuple(sl.SplitSpec("token", j=j) for j in (8, 12))
        sweep = sl.SweepTable(
            law_ids=("chinchilla", "qid"), specs=specs, fit_modes=("per_level",) * 2,
            cells=((SweepCell(0.9992), SweepCell(0.9993)),
                   (SweepCell(None, "overflow"), SweepCell(-11210081.8532))))
        assert [line.split() for line in sweep.to_text().splitlines()] == [
            ["Method", "j=8", "j=12"],
            ["chinchilla", "0.9992*", "0.9993*"],
            ["qid", "n/a", "-1.121e+07"],
        ]

    def test_huge_score_keeps_lines_narrow(self):
        specs = tuple(sl.SplitSpec("token", j=j) for j in (8, 12))
        sweep = sl.SweepTable(
            law_ids=("chinchilla", "qid"), specs=specs, fit_modes=("per_level",) * 2,
            cells=((SweepCell(0.9992), SweepCell(0.9993)),
                   (SweepCell(-3.74e156), SweepCell(0.5))))
        lines = sweep.to_text().splitlines()
        assert lines[2].split() == ["qid", "-3.74e+156", "0.5000"]
        assert all(len(line) < 60 for line in lines)

    def test_overflowing_summary_reads_n_a(self, monkeypatch):
        scores = iter([(-1e200, None), (0.5, None)])
        monkeypatch.setattr(extrapolation, "_score", lambda pairs: next(scores))
        table = sl.compare_laws(shannon_level_set(levels=[40.0, 20.0]),
                                [sl.get_law("chinchilla")], FitConfig(starts=1, max_iters=20),
                                group_by_level=True)
        assert table.rows[0][2:] == (None, None)
        assert table.to_dict()["rows"][0]["avg"] is None
        assert table.to_text().splitlines()[1].split() == [
            "chinchilla", "-1e+200*", "0.5000*", "n/a"]
