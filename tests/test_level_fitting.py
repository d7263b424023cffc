"""The one level-fitting engine behind compare and extrapolate."""

import ast
import csv
import json
from pathlib import Path

import numpy as np
import pytest

import scalelaws as sl
import scalelaws.cli
import scalelaws.extrapolation as extrapolation
from scalelaws.cli import main
from scalelaws.fitter import FitConfig

from synth import MODEL_SIZES, TOKEN_COUNTS, shannon_level_set

UNDEFINED_R2 = "all observed values are identical; R-squared is undefined"
CONFIG = FitConfig(starts=2, random_starts=0, seed=0, max_iters=60,
                   objective_space="log_loss", x_orientation="mitigating")
CONFIG_FLAGS = ["--starts", "2", "--max-iters", "60", "--objective", "log_loss",
                "--x-orientation", "mitigating", "--seed", "0", "--no-timestamp"]


def write_csv(path, observations):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["model_id", "n_params", "d_tokens", "x_level", "loss"])
        for o in observations:
            writer.writerow([o.model_id, repr(o.n_params), repr(o.d_tokens),
                             "" if o.x_level is None else repr(o.x_level), repr(o.loss)])
    return str(path)


def chinchilla_observations(x_level=None, constant_loss=None):
    law = sl.get_law("chinchilla")
    params = sl.ParamVector("chinchilla", (2.0, 3.0, 1.0, 0.5, 0.5))
    return [
        sl.Observation(f"m{i}", float(n), float(d),
                       constant_loss or sl.predict_loss(law, params, n / 1e9, d / 1e9),
                       x_level=x_level)
        for i, n in enumerate(MODEL_SIZES) for d in TOKEN_COUNTS
    ]


def reference_cells(data, law_id, joint):
    """Compare cells from public fit / predict_dataset / r_squared calls."""
    law = sl.get_law(law_id)
    oriented = sl.with_orientation(law, "mitigating") if law.needs_x else law
    joint_fit = None
    if joint and law.needs_x:
        try:
            joint_fit = sl.fit(law, data, CONFIG)
        except sl.ScaleLawsError as exc:
            joint_fit = exc
    cells = []
    for level, group in sl.group_by_level(data):
        try:
            result = joint_fit if joint_fit is not None else sl.fit(law, group, CONFIG)
            if isinstance(result, sl.ScaleLawsError):
                raise result
            pred = sl.predict_dataset(oriented, result.params, group)
            r2 = sl.r_squared(sl.EvalPairs.of(pred, group.losses()))
            cells.append({"level": str(level), "r2": r2, "error": None})
        except sl.ScaleLawsError as exc:
            cells.append({"level": str(level), "r2": None, "error": str(exc)})
    return cells


class TestCompareCells:
    @pytest.mark.parametrize("mode", ["joint", "per_level"])
    def test_each_cell_equals_public_reference(self, tmp_path, capsys, mode):
        data = shannon_level_set(levels=[40.0, 20.0, 10.0])
        path = write_csv(tmp_path / "obs.csv", data)
        out = tmp_path / "cmp.json"
        laws = ["chinchilla", "shannon_extended", "qid"]
        assert main(["compare", "--data", path, "--laws", ",".join(laws), "--group-by-level",
                     "--x-fit-mode", mode, "--out", str(out), *CONFIG_FLAGS]) == 0
        capsys.readouterr()
        table = json.loads(out.read_text())["comparison"]
        assert table["x_fit_mode"] == mode
        loaded = sl.load_observations(path)
        for law_id, row in zip(laws, table["rows"]):
            assert row["law_id"] == law_id
            assert row["cells"] == reference_cells(loaded, law_id, mode == "joint")

    @pytest.mark.parametrize("mode", ["joint", "per_level"])
    def test_constant_level_is_undefined_under_both_modes(self, tmp_path, capsys, mode):
        observations = chinchilla_observations(10.0) + chinchilla_observations(20.0, 2.5)
        path = write_csv(tmp_path / "const.csv", observations)
        out = tmp_path / "cmp.json"
        assert main(["compare", "--data", path, "--laws", "qid,chinchilla", "--group-by-level",
                     "--x-fit-mode", mode, "--out", str(out), *CONFIG_FLAGS]) == 0
        capsys.readouterr()
        rows = json.loads(out.read_text())["comparison"]["rows"]
        for row in rows:
            assert row["cells"][0]["r2"] is not None
            assert row["cells"][1] == {"level": "20.0", "r2": None, "error": UNDEFINED_R2}
            assert row["avg"] == row["cells"][0]["r2"]

    def test_ungrouped_cell_is_the_fit_r2(self):
        data = shannon_level_set(levels=[40.0, 20.0])
        table = sl.compare_laws(data, [sl.get_law("chinchilla")], CONFIG)
        assert table.levels == ("all",)
        assert table.to_dict()["x_fit_mode"] == "joint"
        assert table.rows[0][1] == ((sl.fit(sl.get_law("chinchilla"), data, CONFIG).r2_train,
                                     None),)


class TestSplitOnce:
    def test_extrapolate_splits_and_groups_each_spec_once(self, tmp_path, capsys, monkeypatch):
        calls = {"make_split": 0, "group_by_level": 0}
        for name in calls:
            original = getattr(extrapolation, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(extrapolation, name, counted)
        path = write_csv(tmp_path / "obs.csv", shannon_level_set(levels=[40.0, 20.0]))
        assert main(["extrapolate", "--data", path, "--laws", "chinchilla,openai,qid",
                     "--mode", "token", "--j", "6,8,10,12", "--starts", "1",
                     "--max-iters", "30", "--x-orientation", "mitigating", "--seed", "0"]) == 0
        capsys.readouterr()
        assert calls == {"make_split": 4, "group_by_level": 8}

    def test_unsatisfiable_spec_raises_before_any_fit(self, monkeypatch):
        fits = []
        monkeypatch.setattr(extrapolation, "fit", lambda *args: fits.append(args))
        data = shannon_level_set(levels=[40.0])
        specs = [sl.SplitSpec("token", j=8), sl.SplitSpec("token", j=17)]
        with pytest.raises(sl.SplitError, match="unsatisfiable"):
            sl.progressive_sweep(data, [sl.get_law("chinchilla")], specs, CONFIG)
        assert fits == []

    def test_cli_has_no_fit_loop(self):
        tree = ast.parse(Path(scalelaws.cli.__file__).read_text(encoding="utf-8"))
        banned = {"group_by_level", "predict_dataset", "r_squared", "summarize_levels"}
        for function in (node for node in tree.body if isinstance(node, ast.FunctionDef)):
            called = {node.func.id for node in ast.walk(function)
                      if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
            assert not called & banned, function.name
            assert "fit" not in called or function.name == "cmd_fit", function.name

    def test_cli_parses_no_input_file(self):
        """Input files are read by the library; cmd_grid and cmd_report get
        their FitResult from one read_fit call."""
        tree = ast.parse(Path(scalelaws.cli.__file__).read_text(encoding="utf-8"))
        banned = {"load", "loads", "fit_result_from_dict", "read_text"}
        for function in (node for node in tree.body if isinstance(node, ast.FunctionDef)):
            called = [node.func.attr if isinstance(node.func, ast.Attribute)
                      else getattr(node.func, "id", None)
                      for node in ast.walk(function) if isinstance(node, ast.Call)]
            assert not set(called) & banned, function.name
            reads = 1 if function.name in ("cmd_grid", "cmd_report") else 0
            assert called.count("read_fit") == reads, function.name

    def test_only_evaluate_turns_a_form_into_a_loss(self):
        """In the library only laws.evaluate and laws._capacity_checked (which
        needs snr and C themselves) call a law's form; the twin evaluators
        evaluate_with_jacobian and _capacity_gradient are gone."""
        callers, defined = set(), set()
        for path in Path(scalelaws.__file__).parent.glob("*.py"):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            defined |= {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
            for statement in tree.body:
                callers |= {(path.stem, getattr(statement, "name", None))
                            for node in ast.walk(statement) if isinstance(node, ast.Call)
                            and isinstance(node.func, ast.Attribute) and node.func.attr == "form"}
        assert callers == {("laws", "evaluate"), ("laws", "_capacity_checked")}
        assert not defined & {"evaluate_with_jacobian", "_capacity_gradient"}

    def test_one_checked_evaluator(self):
        """predict_loss, grid_eval and optimal_along_axis evaluate a law
        only through laws._checked_losses: in the library, evaluate_raw is
        called there and by the finite-difference oracle alone, and
        evaluate only in laws.py and by the fitter's objective."""
        callers = {"evaluate": set(), "evaluate_raw": set()}
        for path in Path(scalelaws.__file__).parent.glob("*.py"):
            for statement in ast.parse(path.read_text(encoding="utf-8")).body:
                for node in ast.walk(statement):
                    if isinstance(node, ast.Call):
                        called = getattr(node.func, "attr", getattr(node.func, "id", None))
                        if called in callers:
                            callers[called].add((path.stem, getattr(statement, "name", None)))
        assert callers["evaluate_raw"] == {("laws", "_checked_losses"),
                                           ("laws", "jacobian_fd_arrays")}
        assert {caller for caller in callers["evaluate"] if caller[0] != "laws"} == {
            ("fitter", "_Objective")}

    def test_landscape_evaluates_float_arrays(self, monkeypatch):
        """grid_eval and optimal_along_axis hand the checked evaluator n and
        d as float ndarrays on every call, so each value comes from numpy's
        array pow, as predict_loss's does; a Python float would take the C
        library's scalar pow, which can differ in the last bit."""
        import scalelaws.landscape as landscape
        kinds = []

        def recording(law, params, n, d, x):
            kinds.append(tuple(f"{type(v).__name__}[{getattr(v, 'dtype', '')}]" for v in (n, d)))
            return sl.laws._checked_losses(law, params, n, d, x)

        monkeypatch.setattr(landscape, "_checked_losses", recording)
        law = sl.get_law("shannon_full")
        params = sl.ParamVector("shannon_full", (1.0, 2.0, 1e-4, 0.05, 0.1, 0.4, 0.5, 0.3, 1.4))
        sl.grid_eval(law, params, sl.GridSpec(0.1, 10.0, 0.1, 10.0, 4, 5))
        for fixed_axis in "ND":
            sl.optimal_along_axis(law, params, fixed_axis, 2.0, (1e-2, 1e5), 33)
        assert len(kinds) > 3
        assert set(kinds) == {("ndarray[float64]", "ndarray[float64]")}


class TestLevels:
    def test_level_free_table_extrapolates_as_one_level(self, tmp_path, capsys):
        path = write_csv(tmp_path / "nolevel.csv", chinchilla_observations())
        out = tmp_path / "sweep.json"
        assert main(["extrapolate", "--data", path, "--laws", "chinchilla", "--mode", "token",
                     "--j", "12", "--seed", "0", "--out", str(out), "--no-timestamp"]) == 0
        capsys.readouterr()
        cell = json.loads(out.read_text())["sweep"]["rows"][0]["cells"][0]
        assert cell["error"] is None
        assert cell["pooled_r2"] >= 1 - 1e-6

    def test_level_free_report_names_level_all(self):
        data = sl.ObservationSet(chinchilla_observations())
        report = sl.run_extrapolation(data, sl.get_law("chinchilla"),
                                      sl.SplitSpec("model", k=4), CONFIG)
        assert [level for level, _ in report.per_level_r2] == ["all"]
        assert len(report.per_level_fit) == 1

    def test_partly_levelled_set_is_rejected(self):
        data = sl.ObservationSet(chinchilla_observations()[:48]
                                 + chinchilla_observations(10.0)[48:])
        with pytest.raises(sl.DataValidationError, match="has no x_level"):
            sl.progressive_sweep(data, [sl.get_law("chinchilla")],
                                 [sl.SplitSpec("token", j=12)], CONFIG)

    def test_every_cell_failed_exits_3(self, tmp_path, capsys):
        path = write_csv(tmp_path / "nox.csv", chinchilla_observations())
        out = tmp_path / "sweep.json"
        code = main(["extrapolate", "--data", path, "--laws", "qid", "--mode", "token",
                     "--j", "12", "--out", str(out), *CONFIG_FLAGS])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err == "error[numeric]: every extrapolation cell failed\n"
        assert captured.out == ""
        assert not out.exists()


def absent_level_set():
    """Noiseless qid (mitigating) losses on 6 models x 5 token counts: the
    3 smallest models at X in {4, 8}, the 3 largest also at X = 16."""
    law = sl.with_orientation(sl.get_law("qid"), "mitigating")
    params = sl.ParamVector("qid", (2.0, 3.0, 1.0, 0.05, 0.5, 0.5, 0.3, 0.4, 0.8))
    return sl.ObservationSet(tuple(
        sl.Observation(f"m{i}", float(n), float(d),
                       sl.predict_loss(law, params, n / 1e9, d / 1e9, x), x_level=x)
        for i, n in enumerate(MODEL_SIZES)
        for x in ((4.0, 8.0) if i < 3 else (4.0, 8.0, 16.0))
        for d in np.geomspace(4.2e9, 3.07e11, 5)
    ), normalization=sl.Normalization(1e9, 1e9))


class TestLevelAbsentFromTraining:
    """A model split with k=3 of `absent_level_set` tests level 16.0,
    which no training row has: only a joint fit across levels can
    predict it."""

    SPLIT = sl.SplitSpec("model", k=3)
    CONFIG = FitConfig(starts=16, random_starts=0, seed=0, max_iters=300,
                       objective_space="log_loss", x_orientation="mitigating")

    def test_joint_fit_scores_the_untrained_level(self):
        report = sl.run_extrapolation(absent_level_set(), sl.get_law("qid"), self.SPLIT,
                                      self.CONFIG, fit_mode="joint_x")
        scores = dict(report.per_level_r2)
        assert sorted(scores) == [4.0, 8.0, 16.0]
        assert scores[16.0] >= 1 - 1e-6
        assert report.test_count == 45
        assert len(report.per_level_fit) == 1

    def test_per_level_fit_cannot_predict_it(self):
        with pytest.raises(sl.SplitError, match="^level 16.0 has test observations but no "
                                                "training observations$"):
            sl.run_extrapolation(absent_level_set(), sl.get_law("qid"), self.SPLIT,
                                 self.CONFIG, fit_mode="per_level")

    def test_sweep_records_the_error_and_scores_the_joint_fit(self):
        sweep = sl.progressive_sweep(absent_level_set(),
                                     [sl.get_law("chinchilla"), sl.get_law("qid")],
                                     [self.SPLIT], self.CONFIG)
        assert sweep.fit_modes == ("per_level", "joint_x")
        (chinchilla,), (qid,) = sweep.cells
        assert chinchilla.pooled_r2 is None
        assert chinchilla.error.startswith("level 16.0 has test observations")
        assert qid.error is None
        assert qid.pooled_r2 >= 1 - 1e-6
