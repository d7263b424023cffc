"""End-to-end command tests driven through main(argv)."""

import contextlib
import csv
import errno
import io
import json
import os
import stat
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalelaws as sl
import scalelaws.perturb as perturb_module
from scalelaws.cli import main
from scalelaws.fitter import read_fit

from synth import MODEL_SIZES, TOKEN_COUNTS, shannon_level_set


def write_csv_from_set(path, oset):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["model_id", "n_params", "d_tokens", "x_level", "loss", "source_tag"])
        for o in oset:
            writer.writerow([
                o.model_id, repr(o.n_params), repr(o.d_tokens),
                "" if o.x_level is None else repr(o.x_level),
                repr(o.loss), o.source_tag or "",
            ])
    return str(path)


def run_cli(args, **env_overrides):
    """Run the CLI in a fresh interpreter; returns the CompletedProcess."""
    src = str(Path(sl.__file__).resolve().parents[1])
    env = dict(os.environ, **env_overrides)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "scalelaws.cli", *args],
                          env=env, capture_output=True, text=True, timeout=300)


@pytest.fixture()
def chinchilla_csv(tmp_path):
    law = sl.get_law("chinchilla")
    params = sl.ParamVector("chinchilla", (2.0, 3.0, 1.0, 0.5, 0.5))
    observations = []
    for i, n in enumerate(MODEL_SIZES):
        for d in TOKEN_COUNTS:
            loss = sl.predict_loss(law, params, n / 1e9, d / 1e9)
            observations.append(sl.Observation(f"m{i}", float(n), float(d), loss, x_level=40.0))
    data = sl.ObservationSet(tuple(observations), normalization=sl.Normalization(1e9, 1e9))
    return write_csv_from_set(tmp_path / "chinchilla.csv", data)


class TestFitCommand:
    def test_fit_synthetic_exit_zero(self, tmp_path, chinchilla_csv, capsys):
        out = tmp_path / "fit.json"
        code = main([
            "fit", "--data", chinchilla_csv, "--law", "chinchilla",
            "--seed", "42", "--out", str(out), "--no-timestamp",
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["fit"]["law_id"] == "chinchilla"
        assert payload["fit"]["r2_train"] >= 1 - 1e-9
        assert payload["fit"]["normalization"] == {"n_scale": 1e9, "d_scale": 1e9}
        assert payload["manifest"]["command"] == "fit"
        assert "timestamp" not in payload["manifest"]
        assert "r2_train=" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, message", [
        (["fit", "--law", "chinchilla", "--n-scale", "1e-300"],
         "row 17: n_params 410000000.0 / n_scale 1e-300"),
        (["compare", "--laws", "chinchilla", "--n-scale", "1e-300"],
         "row 17: n_params 410000000.0 / n_scale 1e-300"),
        (["extrapolate", "--laws", "chinchilla", "--mode", "token", "--j", "8",
          "--d-scale", "1e-320"], "row 1: d_tokens 4200000000.0 / d_scale 1e-320"),
    ], ids=["fit", "compare", "extrapolate"])
    def test_scale_flag_that_overflows_is_one_line(self, chinchilla_csv, argv, message):
        """A scale under which a raw N or D leaves the float range is a
        validation error naming the file, the first such row, the column
        and the scale, with no numpy warning before it."""
        ran = run_cli([*argv, "--data", chinchilla_csv, "--starts", "2"])
        assert ran.returncode == 2
        assert ran.stderr == (f"error[validation]: {chinchilla_csv}: {message} "
                              "is not a positive finite float\n")

    def test_missing_law_flag_is_usage_error(self, chinchilla_csv, capsys):
        code = main(["fit", "--data", chinchilla_csv])
        capsys.readouterr()
        assert code == 2

    def test_x_law_without_x_column_exits_2(self, tmp_path, capsys):
        observations = tuple(
            sl.Observation(f"m{i}", float(n), float(d), 2.0)
            for i, n in enumerate(MODEL_SIZES) for d in TOKEN_COUNTS[:3]
        )
        data = sl.ObservationSet(observations)
        path = write_csv_from_set(tmp_path / "no_x.csv", data)
        code = main(["fit", "--data", path, "--law", "qid",
                     "--x-orientation", "mitigating", "--out", str(tmp_path / "f.json")])
        err = capsys.readouterr().err
        assert code == 2
        assert "error[validation]" in err
        assert "x_level" in err

    def test_x_outside_law_domain_is_one_numeric_error_line(self, tmp_path, capsys):
        """qid takes X > 0: x_level 0 is reported as such before any start
        runs, as predict_loss and grid report it."""
        observations = tuple(
            sl.Observation(f"m{i}", float(n), float(d), 2.0, x_level=0.0)
            for i, n in enumerate(MODEL_SIZES[:5]) for d in TOKEN_COUNTS[:3]
        )
        path = write_csv_from_set(tmp_path / "x0.csv", sl.ObservationSet(observations))
        out = tmp_path / "f.json"
        code = main(["fit", "--data", path, "--law", "qid",
                     "--x-orientation", "mitigating", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 3
        assert err == "error[numeric]: law qid requires x > 0\n"
        assert not out.exists()

    def test_x_law_without_orientation_exits_2(self, chinchilla_csv, tmp_path, capsys):
        code = main(["fit", "--data", chinchilla_csv, "--law", "qid",
                     "--out", str(tmp_path / "f.json")])
        err = capsys.readouterr().err
        assert code == 2
        assert "--x-orientation" in err

    def test_missing_data_file(self, tmp_path, capsys):
        code = main(["fit", "--data", str(tmp_path / "nope.csv"), "--law", "chinchilla"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error[validation]")

    def test_seed_env_var_default(self, tmp_path, chinchilla_csv, capsys, monkeypatch):
        monkeypatch.setenv("SCALELAWS_SEED", "123")
        out = tmp_path / "fit.json"
        assert main(["fit", "--data", chinchilla_csv, "--law", "chinchilla",
                     "--out", str(out), "--no-timestamp"]) == 0
        capsys.readouterr()
        payload = json.loads(out.read_text())
        assert payload["fit"]["seed"] == 123
        assert payload["manifest"]["seed"] == 123

    def test_determinism_byte_identical(self, tmp_path, chinchilla_csv, capsys):
        out = tmp_path / "fit.json"
        payloads = []
        for _ in range(2):
            assert main([
                "fit", "--data", chinchilla_csv, "--law", "chinchilla",
                "--seed", "7", "--random-starts", "4",
                "--out", str(out), "--no-timestamp",
            ]) == 0
            payloads.append(out.read_bytes())
        capsys.readouterr()
        assert payloads[0] == payloads[1]


class TestByteOrderMark:
    """Files saved as "CSV UTF-8" by spreadsheet programs start with a BOM."""

    def _fit(self, path, out):
        return main(["fit", "--data", str(path), "--law", "chinchilla", "--seed", "0",
                     "--starts", "2", "--out", str(out), "--no-timestamp"])

    def test_csv_with_bom(self, tmp_path, chinchilla_csv, capsys):
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + Path(chinchilla_csv).read_bytes())
        assert self._fit(chinchilla_csv, tmp_path / "plain.json") == 0
        assert self._fit(bom, tmp_path / "bom.json") == 0
        capsys.readouterr()
        fits = [json.loads((tmp_path / f"{name}.json").read_text())["fit"]
                for name in ("plain", "bom")]
        assert fits[0] == fits[1]

    def test_json_with_bom(self, tmp_path, chinchilla_csv, capsys):
        data = sl.load_observations(chinchilla_csv)
        records = [{"model_id": o.model_id, "n_params": o.n_params, "d_tokens": o.d_tokens,
                    "loss": o.loss, "x_level": o.x_level} for o in data]
        path = tmp_path / "bom.json"
        path.write_text(json.dumps(records), encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbf")
        assert sl.load_observations(path) == data
        assert self._fit(path, tmp_path / "fit.json") == 0
        capsys.readouterr()


class TestCompareCommand:
    def test_generating_law_wins(self, tmp_path, chinchilla_csv, capsys):
        out = tmp_path / "cmp.json"
        code = main([
            "compare", "--data", chinchilla_csv, "--laws", "chinchilla,openai",
            "--group-by-level", "--seed", "0", "--out", str(out), "--no-timestamp",
        ])
        text = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out.read_text())
        rows = {r["law_id"]: r for r in payload["comparison"]["rows"]}
        assert rows["chinchilla"]["cells"][0]["r2"] >= 1 - 1e-9
        assert rows["chinchilla"]["cells"][0]["r2"] >= rows["openai"]["cells"][0]["r2"]
        assert payload["comparison"]["std_kind"] == "population"
        assert "Avg ± Std" in text

    def test_single_cell_matches_fit_r2(self, tmp_path, chinchilla_csv, capsys):
        fit_out = tmp_path / "fit.json"
        cmp_out = tmp_path / "cmp.json"
        main(["fit", "--data", chinchilla_csv, "--law", "chinchilla",
              "--seed", "0", "--out", str(fit_out), "--no-timestamp"])
        main(["compare", "--data", chinchilla_csv, "--laws", "chinchilla",
              "--group-by-level", "--seed", "0", "--out", str(cmp_out), "--no-timestamp"])
        capsys.readouterr()
        fit_r2 = json.loads(fit_out.read_text())["fit"]["r2_train"]
        cell = json.loads(cmp_out.read_text())["comparison"]["rows"][0]["cells"][0]
        assert cell["r2"] == fit_r2

    def test_unknown_law(self, chinchilla_csv, capsys):
        code = main(["compare", "--data", chinchilla_csv, "--laws", "nope"])
        assert code == 2
        assert "unknown law" in capsys.readouterr().err

    def test_empty_law_list(self, chinchilla_csv, capsys):
        code = main(["compare", "--data", chinchilla_csv, "--laws", ""])
        assert code == 2
        assert capsys.readouterr().err == "error[validation]: empty law list\n"


class TestExtrapolateCommand:
    def test_empty_test_split_exits_2(self, tmp_path, capsys):
        data = shannon_level_set(levels=[40.0])
        path = write_csv_from_set(tmp_path / "obs.csv", data)
        code = main(["extrapolate", "--data", path, "--laws", "chinchilla",
                     "--mode", "token", "--j", "16", "--seed", "0"])
        err = capsys.readouterr().err
        assert code == 2
        assert "empty test set" in err

    def test_model_mode_k5(self, tmp_path, capsys):
        data = shannon_level_set(levels=[40.0, 20.0])
        path = write_csv_from_set(tmp_path / "obs.csv", data)
        out = tmp_path / "sweep.json"
        code = main([
            "extrapolate", "--data", path, "--laws", "shannon_full",
            "--mode", "model", "--k", "5", "--seed", "0",
            "--random-starts", "8", "--objective", "log_loss",
            "--out", str(out), "--no-timestamp",
        ])
        text = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["sweep"]["columns"] == ["k=5"]
        cell = payload["sweep"]["rows"][0]["cells"][0]
        assert cell["pooled_r2"] >= 1 - 1e-6
        assert "k=5" in text

    def test_token_mode_multi_j_columns(self, tmp_path, capsys):
        data = shannon_level_set(levels=[40.0])
        path = write_csv_from_set(tmp_path / "obs.csv", data)
        out = tmp_path / "sweep.json"
        code = main([
            "extrapolate", "--data", path, "--laws", "chinchilla,openai",
            "--mode", "token", "--j", "8,12,15", "--seed", "0",
            "--out", str(out), "--no-timestamp",
        ])
        capsys.readouterr()
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["sweep"]["columns"] == ["j=8", "j=12", "j=15"]
        assert [r["law_id"] for r in payload["sweep"]["rows"]] == ["chinchilla", "openai"]


    def test_unsatisfiable_split_names_first_model_at_any_hash_seed(self, tmp_path):
        """Several models are too short for j=5; the first in load order is
        named, whatever the string hash seed."""
        tokens = {"alpha": 4, "beta": 6, "gamma": 3, "delta": 2, "epsilon": 6}
        path = tmp_path / "short.csv"
        lines = ["model_id,n_params,d_tokens,loss"]
        for i, (model_id, count) in enumerate(tokens.items()):
            lines += [f"{model_id},{(i + 1) * 1e8},{(t + 1) * 1e9},{3.0 - 0.1 * t}"
                      for t in range(count)]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        args = ["extrapolate", "--data", str(path), "--laws", "chinchilla",
                "--mode", "token", "--j", "5"]
        errors = set()
        for seed in ("1", "2", "3"):
            result = run_cli(args, PYTHONHASHSEED=seed)
            assert result.returncode == 2
            errors.add(result.stderr)
        assert errors == {"error[validation]: model 'alpha' has only 4 distinct "
                          "token counts; j=5 is unsatisfiable\n"}


def write_scaled_levels_csv(path, scales):
    """Chinchilla losses at each x_level of `scales`, times its factor."""
    law = sl.get_law("chinchilla")
    params = sl.ParamVector("chinchilla", (2.0, 3.0, 1.0, 0.5, 0.5))
    observations = tuple(
        sl.Observation(f"m{i}", float(n), float(d),
                       float(sl.predict_loss(law, params, n / 1e9, d / 1e9)) * scale,
                       x_level=level)
        for level, scale in scales.items()
        for i, n in enumerate(MODEL_SIZES)
        for d in TOKEN_COUNTS
    )
    return write_csv_from_set(path, sl.ObservationSet(observations))


class TestScoreOverflow:
    """Losses near 1e160 have squares beyond the float range, so R^2 is
    null with the reason wherever its sums of squares overflow."""

    FLAGS = ["--seed", "0", "--objective", "log_loss", "--no-timestamp"]

    def test_fit_records_null_r2_train(self, tmp_path, capsys):
        path = write_scaled_levels_csv(tmp_path / "obs.csv", {40.0: 1.0, 20.0: 1e160})
        out = tmp_path / "fit.json"
        code = main(["fit", "--data", path, "--law", "chinchilla", "--out", str(out),
                     *self.FLAGS])
        assert code == 0
        assert json.loads(out.read_text())["fit"]["r2_train"] is None
        assert "r2_train=n/a" in capsys.readouterr().out

    def test_compare_cell_is_null_with_reason(self, tmp_path, capsys):
        path = write_scaled_levels_csv(tmp_path / "obs.csv", {40.0: 1.0, 20.0: 1e160})
        out = tmp_path / "cmp.json"
        code = main(["compare", "--data", path, "--laws", "chinchilla", "--group-by-level",
                     "--out", str(out), *self.FLAGS])
        capsys.readouterr()
        assert code == 0
        cells = json.loads(out.read_text())["comparison"]["rows"][0]["cells"]
        assert cells[0] == {"level": "20.0", "r2": None, "error": "the total sum of squares "
                            "overflows the float range; R-squared is undefined"}
        assert cells[1]["r2"] >= 1 - 1e-9

    @pytest.mark.parametrize("command,args,table", [
        ("compare", ["--laws", "chinchilla"], "comparison"),
        ("extrapolate", ["--laws", "chinchilla", "--mode", "token", "--j", "8"],
         "extrapolation"),
    ])
    def test_every_cell_overflowing_exits_3(self, tmp_path, capsys, command, args, table):
        path = write_scaled_levels_csv(tmp_path / "obs.csv", {20.0: 1e160})
        code = main([command, "--data", path, *args, *self.FLAGS])
        assert code == 3
        assert capsys.readouterr().err == f"error[numeric]: every {table} cell failed\n"


class TestGridAndReportCommands:
    def test_grid_csv_monotone_and_manifest(self, tmp_path, chinchilla_csv, capsys):
        fit_out = tmp_path / "fit.json"
        main(["fit", "--data", chinchilla_csv, "--law", "chinchilla",
              "--seed", "0", "--out", str(fit_out), "--no-timestamp"])
        grid_out = tmp_path / "grid.csv"
        basin_out = tmp_path / "basin.json"
        code = main([
            "grid", "--fit", str(fit_out),
            "--n-min", "1e8", "--n-max", "1e10",
            "--d-min", "1e9", "--d-max", "1e11",
            "--n-steps", "6", "--d-steps", "6",
            "--out", str(grid_out), "--basin", str(basin_out), "--no-timestamp",
        ])
        capsys.readouterr()
        assert code == 0
        rows = list(csv.DictReader(grid_out.open()))
        assert len(rows) == 36
        losses = {}
        for row in rows:
            losses[(float(row["n"]), float(row["d"]))] = float(row["loss"])
        ns = sorted({k[0] for k in losses})
        ds = sorted({k[1] for k in losses})
        for d in ds:  # decreasing along n at every d
            column = [losses[(n, d)] for n in ns]
            assert all(a > b for a, b in zip(column, column[1:]))
        assert (tmp_path / "grid.csv.manifest.json").exists()
        basin = json.loads(basin_out.read_text())
        assert basin["basin"]["monotonic_n"] == "decreasing"

    def test_exponent_report_command(self, tmp_path, capsys):
        data = shannon_level_set(levels=[40.0])
        path = write_csv_from_set(tmp_path / "obs.csv", data)
        fit_out = tmp_path / "fit.json"
        main(["fit", "--data", path, "--law", "shannon_full", "--seed", "0",
              "--random-starts", "8", "--objective", "log_loss",
              "--out", str(fit_out), "--no-timestamp"])
        report_out = tmp_path / "exponents.json"
        code = main(["report", "--fit", str(fit_out), "--out", str(report_out),
                     "--no-timestamp"])
        stdout = capsys.readouterr().out
        assert code == 0
        payload = json.loads(report_out.read_text())
        assert payload["exponents"]["d_axis_verdict"] in (
            "noise_dominates", "signal_dominates", "tie"
        )
        assert "N axis" in stdout

    @pytest.mark.parametrize("command, out", [
        (["report", "--fit", "../fit.json"], "out.json"),
        (["grid", "--fit", "../fit.json", "--n-min", "1", "--n-max", "10", "--d-min", "1",
          "--d-max", "10", "--n-steps", "4", "--d-steps", "3"], "out.csv"),
        (["wvec-pack", "--in", "../w.txt"], "out.wvec"),
    ], ids=["report", "grid", "wvec_pack"])
    def test_output_at_redirected_stdout(self, tmp_path, command, out):
        """An --out that is the file standard output is redirected to is
        written through standard output, so the file holds the output and
        then the summary line, as piped output does; renaming a new file
        over it would lose the summary line."""
        (tmp_path / "fit.json").write_text(json.dumps({"fit": fit_record()}), encoding="utf-8")
        (tmp_path / "w.txt").write_text("1.5\n-2.0\n", encoding="utf-8")
        argv = [sys.executable, "-m", "scalelaws.cli", *command, "--out", out, "--no-timestamp"]
        env = dict(os.environ, PYTHONPATH=str(Path(sl.__file__).resolve().parents[1]))
        apart, redirected = tmp_path / "apart", tmp_path / "redirected"
        apart.mkdir()
        redirected.mkdir()
        ran = subprocess.run(argv, cwd=apart, env=env, capture_output=True, timeout=300)
        with open(redirected / out, "wb") as stdout:
            ran_redirected = subprocess.run(argv, cwd=redirected, env=env, stdout=stdout,
                                            stderr=subprocess.PIPE, timeout=300)
        assert (ran.returncode, ran.stderr) == (ran_redirected.returncode,
                                                ran_redirected.stderr) == (0, b"")
        assert ran.stdout.count(b"\n") == 1
        assert (redirected / out).read_bytes() == (apart / out).read_bytes() + ran.stdout
        assert sorted(p.name for p in redirected.iterdir()) == sorted(
            p.name for p in apart.iterdir())

    @pytest.mark.parametrize("law_id, x, message", [
        ("shannon_full", "3", "law shannon_full takes no x"),
        ("qid", None, "law qid requires x"),
        ("qid", "-1", "law qid requires x > 0"),
        ("qid", "nan", "x must be finite"),
    ], ids=["x_on_law_without_x", "missing_x", "x_outside_domain", "x_not_finite"])
    def test_x_the_law_refuses_is_a_usage_error(self, tmp_path, capsys, law_id, x, message):
        """--x is checked against the fit's law before any work: a value
        the law refuses is one validation line with exit 2."""
        law = sl.get_law(law_id)
        record = sl.FitResult(
            law_id=law_id, params=sl.ParamVector(law_id, (1.0,) * law.n_params),
            normalization=sl.Normalization(1.0, 1.0), sse=0.0, r2_train=1.0, n_obs=1,
            converged=True, iterations_used=0, start_index_won=0, seed=0,
            objective_space="loss", x_orientation="mitigating" if law.needs_x else None,
        ).to_dict()
        fit_path = tmp_path / "fit.json"
        fit_path.write_text(json.dumps({"fit": record}), encoding="utf-8")
        code = main(["grid", "--fit", str(fit_path), "--n-min", "1", "--n-max", "10",
                     "--d-min", "1", "--d-max", "10", "--out", str(tmp_path / "g.csv"),
                     *(["--x", x] if x is not None else [])])
        assert code == 2
        assert capsys.readouterr().err == f"error[validation]: {message}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fit.json"]

    def test_overflowing_normalization_is_one_line(self, tmp_path):
        """A fit whose n_scale takes every grid N past the float range
        leaves no evaluable cell; the run says so on one line, with no
        numpy warning before it."""
        record = fit_record()
        record["normalization"]["n_scale"] = 1e-300
        fit_path = tmp_path / "fit.json"
        fit_path.write_text(json.dumps({"fit": record}), encoding="utf-8")
        ran = run_cli(["grid", "--fit", str(fit_path), "--n-min", "1e8", "--n-max", "1e10",
                       "--d-min", "1", "--d-max", "10", "--out", str(tmp_path / "g.csv")])
        assert ran.returncode == 3
        assert ran.stderr == "error[numeric]: shannon_full: entirely non-evaluable grid\n"

    def test_report_on_baseline_fit_is_numeric_error(self, tmp_path, chinchilla_csv, capsys):
        fit_out = tmp_path / "fit.json"
        main(["fit", "--data", chinchilla_csv, "--law", "chinchilla",
              "--seed", "0", "--out", str(fit_out), "--no-timestamp"])
        code = main(["report", "--fit", str(fit_out)])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error[numeric]")


class TestPerturbPipeline:
    def test_pack_perturb_measure(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        text_path = tmp_path / "w.txt"
        text_path.write_text(
            "\n".join(repr(float(v)) for v in rng.normal(0, 0.1, 100_000)) + "\n",
            encoding="utf-8",
        )
        wvec = tmp_path / "w.wvec"
        out = tmp_path / "out.wvec"
        assert main(["wvec-pack", "--in", str(text_path), "--out", str(wvec),
                     "--no-timestamp"]) == 0
        assert main(["perturb", "--in", str(wvec), "--snr-db", "20",
                     "--seed", "3", "--out", str(out), "--no-timestamp"]) == 0
        code = main(["measure", "--original", str(wvec), "--perturbed", str(out)])
        stdout = capsys.readouterr().out
        assert code == 0
        line = [l for l in stdout.splitlines() if l.startswith("empirical_snr_db=")][-1]
        assert abs(float(line.split("=")[1]) - 20.0) <= 0.2

    def test_zero_db_sigma_equals_signal_power(self, tmp_path, capsys):
        rng = np.random.default_rng(6)
        values = rng.normal(0, 1, 5000)
        w = sl.WeightVector(values)
        wvec = tmp_path / "w.wvec"
        sl.write_wvec(wvec, w)
        out = tmp_path / "out.wvec"
        report_path = tmp_path / "report.json"
        assert main(["perturb", "--in", str(wvec), "--snr-db", "0", "--seed", "1",
                     "--out", str(out), "--report", str(report_path),
                     "--no-timestamp"]) == 0
        capsys.readouterr()
        payload = json.loads(report_path.read_text())
        assert payload["perturb"]["sigma2"] == sl.signal_power(w)

    def test_unpack_round_trip(self, tmp_path, capsys):
        rng = np.random.default_rng(7)
        w = sl.WeightVector(rng.normal(0, 1, 50))
        wvec = tmp_path / "w.wvec"
        sl.write_wvec(wvec, w)
        text_out = tmp_path / "back.txt"
        assert main(["wvec-unpack", "--in", str(wvec), "--out", str(text_out),
                     "--no-timestamp"]) == 0
        capsys.readouterr()
        back = sl.read_weights_text(text_out)
        np.testing.assert_array_equal(back.values, w.values)

    def test_perturb_determinism(self, tmp_path, capsys):
        rng = np.random.default_rng(8)
        w = sl.WeightVector(rng.normal(0, 1, 1000))
        wvec = tmp_path / "w.wvec"
        sl.write_wvec(wvec, w)
        out = tmp_path / "out.wvec"
        report = tmp_path / "report.json"
        outs = []
        for _ in range(2):
            assert main(["perturb", "--in", str(wvec), "--snr-db", "15",
                         "--seed", "9", "--out", str(out), "--report", str(report),
                         "--no-timestamp"]) == 0
            outs.append((out.read_bytes(), report.read_bytes()))
        capsys.readouterr()
        assert outs[0] == outs[1]


    def test_same_path_output_matches_separate_output(self, tmp_path, capsys):
        w = sl.WeightVector(np.random.default_rng(11).normal(0, 1, 70_000))
        inplace, source = tmp_path / "inplace.wvec", tmp_path / "source.wvec"
        sl.write_wvec(inplace, w)
        sl.write_wvec(source, w)
        separate = tmp_path / "separate.wvec"
        for src, out in ((source, separate), (inplace, inplace)):
            assert main(["perturb", "--in", str(src), "--snr-db", "12", "--seed", "5",
                         "--out", str(out), "--no-timestamp"]) == 0
        capsys.readouterr()
        assert inplace.read_bytes() == separate.read_bytes()
        reports = [json.loads(Path(f"{out}.report.json").read_text())["perturb"]
                   for out in (inplace, separate)]
        assert reports[0] == reports[1]
        assert not list(tmp_path.glob(".*"))

    def test_failed_run_leaves_no_output(self, tmp_path, capsys):
        src = tmp_path / "zeros.wvec"
        sl.write_wvec(src, sl.WeightVector(np.zeros(100)))
        out = tmp_path / "out.wvec"
        assert main(["perturb", "--in", str(src), "--snr-db", "20", "--out", str(out)]) == 2
        assert main(["perturb", "--in", str(src), "--snr-db", "20", "--out", str(src)]) == 2
        assert "zero signal power" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["zeros.wvec"]
        assert sl.read_wvec(src).count == 100

    def test_failed_run_keeps_existing_output(self, tmp_path, capsys):
        src = tmp_path / "w.wvec"
        sl.write_wvec(src, sl.WeightVector(np.ones(100)))
        out = tmp_path / "out.wvec"
        out.write_bytes(b"previous")
        assert main(["perturb", "--in", str(src), "--snr-db", "20",
                     "--segments", "40,40", "--out", str(out)]) == 2
        assert "sum to 100" in capsys.readouterr().err
        assert out.read_bytes() == b"previous"

class TestErrorContract:
    """Bad seeds and unusable files give one error[validation] line and exit 2."""

    @pytest.fixture()
    def wvec(self, tmp_path):
        path = tmp_path / "w.wvec"
        sl.write_wvec(path, sl.WeightVector(np.random.default_rng(10).normal(0, 1, 100)))
        return path

    def _assert_validation_error(self, code, capsys):
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error[validation]: ")
        assert err.count("\n") == 1

    def test_negative_seed(self, tmp_path, wvec, capsys):
        code = main(["perturb", "--in", str(wvec), "--snr-db", "20", "--seed", "-1",
                     "--out", str(tmp_path / "out.wvec")])
        self._assert_validation_error(code, capsys)

    def test_non_integer_seed_env_var(self, tmp_path, wvec, capsys, monkeypatch):
        monkeypatch.setenv("SCALELAWS_SEED", "abc")
        code = main(["perturb", "--in", str(wvec), "--snr-db", "20",
                     "--out", str(tmp_path / "out.wvec")])
        self._assert_validation_error(code, capsys)

    def test_missing_input_file(self, tmp_path, capsys):
        code = main(["perturb", "--in", str(tmp_path / "missing.wvec"), "--snr-db", "20",
                     "--out", str(tmp_path / "out.wvec")])
        self._assert_validation_error(code, capsys)

    def test_json_integer_beyond_float_range(self, tmp_path, capsys):
        """A 401-digit JSON integer is one validation line naming the row
        and the column, as the same number in a CSV is."""
        path = tmp_path / "big.json"
        path.write_text('[{"model_id": "m", "n_params": ' + "1" * 401
                        + ', "d_tokens": 1e9, "loss": 2.0}]', encoding="utf-8")
        code = main(["fit", "--data", str(path), "--law", "chinchilla",
                     "--out", str(tmp_path / "fit.json")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error[validation]: {path}: row 0: n_params must be a positive real, got inf\n")

    def test_f32_value_beyond_range_is_one_line(self, tmp_path):
        """A value the float32 cast overflows is one validation line naming
        the file and its line, with no numpy warning before it."""
        text = tmp_path / "w.txt"
        text.write_text("1.5\n\n-2.0\n1e39\n", encoding="utf-8")
        ran = run_cli(["wvec-pack", "--in", str(text), "--out", str(tmp_path / "w.wvec"),
                       "--dtype", "f32"])
        assert ran.returncode == 2
        assert ran.stderr == (
            f"error[validation]: {text}: line 4: '1e39' is not a finite f32 value\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["w.txt"]

    def test_output_in_missing_directory(self, tmp_path, wvec, capsys):
        code = main(["perturb", "--in", str(wvec), "--snr-db", "20",
                     "--out", str(tmp_path / "nodir" / "x.wvec")])
        self._assert_validation_error(code, capsys)


    @pytest.mark.parametrize("blob", [
        b"WVEC\x01",
        b"NOPE\x01\x01" + (1).to_bytes(8, "little") + bytes(8),
        b"WVEC\x02\x01" + (1).to_bytes(8, "little") + bytes(8),
        b"WVEC\x01\x07" + (1).to_bytes(8, "little") + bytes(8),
        b"WVEC\x01\x01" + (2).to_bytes(8, "little") + bytes(8),
        b"WVEC\x01\x00" + (1).to_bytes(8, "little") + bytes(5),
    ], ids=["truncated_header", "magic", "version", "dtype", "short", "long"])
    def test_corrupt_wvec(self, tmp_path, wvec, blob, capsys):
        bad = tmp_path / "bad.wvec"
        bad.write_bytes(blob)
        code = main(["perturb", "--in", str(bad), "--snr-db", "20",
                     "--out", str(tmp_path / "out.wvec")])
        self._assert_validation_error(code, capsys)
        code = main(["measure", "--original", str(wvec), "--perturbed", str(bad)])
        self._assert_validation_error(code, capsys)
        assert not (tmp_path / "out.wvec").exists()
    @pytest.mark.parametrize("command, flag, name", [
        ("fit", "--data", "obs.csv"),
        ("fit", "--data", "obs.json"),
        ("wvec-pack", "--in", "w.txt"),
    ])
    def test_undecodable_text(self, tmp_path, capsys, command, flag, name):
        path = tmp_path / name
        path.write_bytes(b"\xff\xfe" + "1.0\n".encode("utf-16-le"))
        extra = ["--law", "chinchilla"] if command == "fit" else []
        code = main([command, flag, str(path), *extra, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error[validation]: {path}: not UTF-8 text")
        assert err.count("\n") == 1
        assert [p.name for p in tmp_path.iterdir()] == [name]

    def test_failed_basin_writes_no_grid(self, tmp_path, capsys):
        fit_path = tmp_path / "fit.json"
        fit_path.write_text(json.dumps({"fit": fit_record()}), encoding="utf-8")
        code = main(["grid", "--fit", str(fit_path), "--n-min", "1", "--n-max", "10",
                     "--d-min", "1", "--d-max", "10", "--n-steps", "2",
                     "--out", str(tmp_path / "grid.csv"), "--basin", str(tmp_path / "b.json")])
        self._assert_validation_error(code, capsys)
        assert [p.name for p in tmp_path.iterdir()] == ["fit.json"]

    def test_unwritable_basin_writes_no_grid(self, tmp_path, capsys):
        fit_path = tmp_path / "fit.json"
        fit_path.write_text(json.dumps({"fit": fit_record()}), encoding="utf-8")
        code = main(["grid", "--fit", str(fit_path), "--n-min", "1", "--n-max", "10",
                     "--d-min", "1", "--d-max", "10", "--out", str(tmp_path / "grid.csv"),
                     "--basin", str(tmp_path / "nodir" / "b.json")])
        self._assert_validation_error(code, capsys)
        assert [p.name for p in tmp_path.iterdir()] == ["fit.json"]

    def test_unwritable_report_writes_no_weights(self, tmp_path, wvec, capsys):
        code = main(["perturb", "--in", str(wvec), "--snr-db", "20",
                     "--out", str(tmp_path / "p.wvec"),
                     "--report", str(tmp_path / "nodir" / "r.json")])
        self._assert_validation_error(code, capsys)
        assert [p.name for p in tmp_path.iterdir()] == ["w.wvec"]

    @pytest.mark.parametrize("command", ["wvec-pack", "wvec-unpack", "grid", "perturb"])
    def test_failed_manifest_writes_no_output(self, tmp_path, wvec, capsys, command):
        text = tmp_path / "w.txt"
        text.write_text("1.5\n-2.0\n", encoding="utf-8")
        fit_path = tmp_path / "fit.json"
        fit_path.write_text(json.dumps({"fit": fit_record()}), encoding="utf-8")
        out = tmp_path / "out"
        (tmp_path / "out.manifest.json").mkdir()
        before = sorted(p.name for p in tmp_path.iterdir())
        inputs = {
            "wvec-pack": ["--in", str(text)],
            "wvec-unpack": ["--in", str(wvec)],
            "grid": ["--fit", str(fit_path), "--n-min", "1", "--n-max", "10", "--d-min", "1",
                     "--d-max", "10", "--basin", str(tmp_path / "b.json")],
            "perturb": ["--in", str(wvec), "--snr-db", "20"],
        }[command]
        code = main([command, *inputs, "--out", str(out)])
        self._assert_validation_error(code, capsys)
        assert sorted(p.name for p in tmp_path.iterdir()) == before

    @pytest.mark.parametrize("argv", [
        ["report", "--fit"], ["fit", "--law", "chinchilla", "--data"],
    ], ids=["fit_json", "observations"])
    def test_deeply_nested_json(self, tmp_path, capsys, argv):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000, encoding="utf-8")
        code = main([*argv, str(path), "--out", str(tmp_path / "out.json")])
        assert code == 2
        assert capsys.readouterr().err == f"error[validation]: {path}: JSON nested too deeply\n"
        assert [p.name for p in tmp_path.iterdir()] == ["deep.json"]

    @pytest.mark.parametrize("mode, lists, flag", [
        ("joint", ["--j", ",", "--k", ","], "--j"),
        ("joint", ["--j", "8", "--k", ","], "--k"),
        ("token", ["--j", " "], "--j"),
        ("model", ["--k", ","], "--k"),
    ], ids=["joint", "joint_k", "token", "model"])
    def test_empty_split_list(self, tmp_path, capsys, mode, lists, flag):
        """A split list with no integer is a usage error, not a sweep in
        which every one of its zero cells failed."""
        data = write_csv_from_set(tmp_path / "obs.csv", shannon_level_set(levels=[40.0]))
        out = tmp_path / "sweep.json"
        code = main(["extrapolate", "--data", data, "--laws", "chinchilla", "--mode", mode,
                     *lists, "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error[validation]: {flag} expects at least one integer, got {lists[-1]!r}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["obs.csv"]

    @pytest.mark.parametrize("split, message", [
        (["--mode", "model", "--k", "2", "--j", "3"], "model mode takes no j"),
        (["--mode", "token", "--j", "2", "--k", "1,2,3"], "token mode takes no k"),
        (["--mode", "token", "--j", "2", "--joint-full-test"],
         "token mode takes no joint_full_test"),
        (["--mode", "model", "--k", "2", "--joint-full-test"],
         "model mode takes no joint_full_test"),
        (["--mode", "token"], "token mode requires j >= 1, got None"),
        (["--mode", "joint", "--j", "2"], "joint mode requires k >= 1, got None"),
    ], ids=["model_j", "token_k_list", "token_full_test", "model_full_test", "token_no_j",
            "joint_no_k"])
    def test_split_flag_the_mode_does_not_take(self, tmp_path, capsys, split, message):
        """A split flag the mode ignores, or one it needs and lacks, is a
        usage error rather than a run whose manifest records it."""
        data = write_csv_from_set(tmp_path / "obs.csv", shannon_level_set(levels=[40.0]))
        code = main(["extrapolate", "--data", data, "--laws", "chinchilla", *split,
                     "--out", str(tmp_path / "sweep.json")])
        assert code == 2
        assert capsys.readouterr().err == f"error[validation]: {message}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["obs.csv"]

    @pytest.mark.parametrize("command, outputs, shared", [
        ("grid", ["--out", "g.csv", "--basin", "./g.csv"], "./g.csv"),
        ("grid", ["--out", "g.csv", "--basin", "g.csv.manifest.json"], "g.csv.manifest.json"),
        ("perturb", ["--out", "p.wvec", "--report", "p.wvec"], "p.wvec"),
        ("perturb", ["--out", "p.wvec", "--report", "p.wvec.manifest.json"],
         "p.wvec.manifest.json"),
    ], ids=["grid_basin", "grid_basin_manifest", "perturb_report", "perturb_report_manifest"])
    def test_outputs_at_one_path(self, tmp_path, wvec, capsys, monkeypatch, command, outputs,
                                 shared):
        """Two outputs of one run at one path are refused before any file
        is made, rather than the one written last replacing the other."""
        monkeypatch.chdir(tmp_path)
        fit_path = tmp_path / "fit.json"
        fit_path.write_text(json.dumps({"fit": fit_record()}), encoding="utf-8")
        (tmp_path / shared).write_bytes(b"previous")
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        inputs = {
            "grid": ["--fit", str(fit_path), "--n-min", "1", "--n-max", "10", "--d-min", "1",
                     "--d-max", "10"],
            "perturb": ["--in", str(wvec), "--snr-db", "20"],
        }[command]
        code = main([command, *inputs, *outputs])
        assert code == 2
        assert capsys.readouterr().err == f"error[validation]: {shared}: two outputs at one path\n"
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    @pytest.mark.parametrize("argv, shared", [
        (["perturb", "--in", "w.wvec", "--snr-db", "20", "--out", "p.wvec",
          "--report", "w.wvec"], "w.wvec"),
        (["grid", "--fit", "fit.json", "--n-min", "1", "--n-max", "10", "--d-min", "1",
          "--d-max", "10", "--out", "g.csv", "--basin", "fit.json"], "fit.json"),
        (["grid", "--fit", "fit.json", "--n-min", "1", "--n-max", "10", "--d-min", "1",
          "--d-max", "10", "--out", "./fit.json"], "./fit.json"),
        (["fit", "--data", "obs.csv", "--law", "chinchilla", "--out", "obs.csv"], "obs.csv"),
        (["compare", "--data", "obs.csv", "--laws", "chinchilla", "--out", "obs.csv"],
         "obs.csv"),
        (["extrapolate", "--data", "obs.csv", "--laws", "chinchilla", "--mode", "token",
          "--j", "8", "--out", "obs.csv"], "obs.csv"),
        (["report", "--fit", "fit.json", "--out", "fit.json"], "fit.json"),
        (["measure", "--original", "w.wvec", "--perturbed", "p.wvec", "--out", "p.wvec"],
         "p.wvec"),
        (["wvec-pack", "--in", "w.txt", "--out", "w.txt"], "w.txt"),
        (["wvec-unpack", "--in", "p.wvec", "--out", "p.wvec"], "p.wvec"),
    ], ids=["perturb_report", "grid_basin", "grid_out", "fit", "compare", "extrapolate",
            "report", "measure", "wvec_pack", "wvec_unpack"])
    def test_output_at_an_input_path(self, tmp_path, wvec, capsys, monkeypatch, argv, shared):
        """An output that would replace an input of the same run, whose
        digest the manifest records, is refused before any file changes."""
        monkeypatch.chdir(tmp_path)
        write_csv_from_set(tmp_path / "obs.csv", shannon_level_set(levels=[40.0]))
        (tmp_path / "fit.json").write_text(json.dumps({"fit": fit_record()}), encoding="utf-8")
        (tmp_path / "w.txt").write_text("1.5\n-2.0\n", encoding="utf-8")
        sl.write_wvec(tmp_path / "p.wvec",
                      sl.WeightVector(np.random.default_rng(12).normal(0, 1, 100)))
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        code = main(argv)
        assert code == 2
        assert capsys.readouterr().err == (
            f"error[validation]: {shared}: an output at an input's path\n")
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    @pytest.mark.parametrize("argv, named", [
        (["grid", "--fit", "fit.json", "--n-min", "1", "--n-max", "10", "--d-min", "1",
          "--d-max", "10", "--out", "g.csv", "--basin", "nodir/b.json"], "nodir/b.json"),
        (["perturb", "--in", "w.wvec", "--snr-db", "20", "--out", "p.wvec",
          "--report", "nodir/r.json"], "nodir/r.json"),
        (["perturb", "--in", "w.wvec", "--snr-db", "20", "--out", "./nodir/p.wvec"],
         "./nodir/p.wvec.manifest.json"),
    ], ids=["grid_basin", "perturb_report", "perturb_out"])
    def test_unwritable_output_is_named_as_given(self, tmp_path, wvec, capsys, monkeypatch,
                                                 argv, named):
        """The error line names the output the run could not make, as given,
        not the temporary file written beside it. perturb makes the
        manifest beside --out first."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "fit.json").write_text(json.dumps({"fit": fit_record()}), encoding="utf-8")
        code = main(argv)
        assert code == 2
        assert capsys.readouterr().err == (
            f"error[validation]: [Errno 2] No such file or directory: '{named}'\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fit.json", "w.wvec"]

    @pytest.mark.parametrize("argv, message", [
        (["fit", "--data", "x.csv"], "the following arguments are required: --law"),
        (["fit", "--data", "x.csv", "--law", "chinchilla", "--starts", "abc"],
         "argument --starts: invalid int value: 'abc'"),
        (["bogus"], "argument command: invalid choice: 'bogus'"),
        (["perturb", "--in", "w.wvec", "--out", "p.wvec", "--snr-db", "-1e308"],
         "argument --snr-db: expected one argument"),
    ], ids=["missing_flag", "bad_int", "unknown_command", "option_like_value"])
    def test_usage_error_is_one_line(self, capsys, argv, message):
        """A usage error is one error[validation] line, without argparse's
        usage block."""
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith(f"error[validation]: {message}")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    def test_help_and_version_are_unchanged(self, capsys):
        assert main(["--version"]) == 0
        assert capsys.readouterr().out == f"scalelaws {sl.__version__}\n"
        assert main(["fit", "-h"]) == 0
        assert capsys.readouterr().out.startswith("usage: scalelaws fit ")


class TestThreadCountDeterminism:
    def _run(self, args, threads, cpus=None):
        src = str(Path(sl.__file__).resolve().parents[1])
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        pin = None if cpus is None else lambda: os.sched_setaffinity(0, cpus)
        subprocess.run([sys.executable, "-m", "scalelaws.cli", *args], preexec_fn=pin,
                       env=env, check=True, capture_output=True, timeout=300)

    def test_fit_and_compare_identical_at_one_and_two_threads(self, tmp_path):
        data = write_csv_from_set(tmp_path / "obs.csv", shannon_level_set(levels=[40.0, 20.0]))
        fit_out = tmp_path / "fit.json"
        cmp_out = tmp_path / "cmp.json"
        outputs = {}
        for threads in (1, 2):
            self._run(["fit", "--data", data, "--law", "shannon_full", "--seed", "3",
                       "--random-starts", "4", "--objective", "log_loss",
                       "--out", str(fit_out), "--no-timestamp"], threads)
            self._run(["compare", "--data", data, "--laws", "chinchilla,precision",
                       "--group-by-level", "--x-orientation", "mitigating", "--seed", "3",
                       "--starts", "4", "--out", str(cmp_out), "--no-timestamp"], threads)
            outputs[threads] = (fit_out.read_bytes(), cmp_out.read_bytes())
        assert outputs[1] == outputs[2]

    @pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda _: ())(0)) < 2,
                        reason="needs at least 2 usable CPUs")
    def test_compare_identical_on_one_and_two_cpus(self, tmp_path):
        """compare runs its fits in process on one CPU and in worker
        processes on two. Level 5.0 has fewer rows than chinchilla has
        parameters, so the error text of a failed fit is compared too."""
        oset = shannon_level_set(levels=[40.0, 20.0])
        few = shannon_level_set(levels=[5.0], n_values=MODEL_SIZES[:1], d_values=TOKEN_COUNTS[:3])
        data = write_csv_from_set(tmp_path / "obs.csv", oset.with_observations([*oset, *few]))
        out = tmp_path / "cmp.json"
        outputs = {}
        cpus = sorted(os.sched_getaffinity(0))
        for count in (1, 2):
            self._run(["compare", "--data", data, "--laws", "chinchilla,openai,precision",
                       "--group-by-level", "--x-orientation", "mitigating", "--seed", "3",
                       "--starts", "4", "--out", str(out), "--no-timestamp"], 1,
                      set(cpus[:count]))
            outputs[count] = out.read_bytes()
        assert outputs[1] == outputs[2]
        cells = json.loads(outputs[1])["comparison"]["rows"][0]["cells"]
        assert [c["level"] for c in cells if c["error"] is not None] == ["5.0"]


class TestFitWorkers:
    """compare spreads its fits over forked workers; none outlives it."""

    def test_cli_import_loads_no_pool_module(self):
        src = str(Path(sl.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        probe = ("import sys, scalelaws.cli; print(sorted(m for m in sys.modules "
                 "if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
        proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                              text=True, timeout=300, check=True)
        assert proc.stdout == "[]\n"

    @pytest.mark.parametrize("sizes, code", [(MODEL_SIZES, 0), (MODEL_SIZES[:1], 3)],
                             ids=["success", "every_cell_failed"])
    def test_no_worker_outlives_compare(self, tmp_path, capsys, sizes, code):
        import multiprocessing

        oset = shannon_level_set(levels=[40.0, 20.0], n_values=sizes, d_values=TOKEN_COUNTS[:3])
        data = write_csv_from_set(tmp_path / "obs.csv", oset)
        assert main(["compare", "--data", data, "--laws", "chinchilla,openai",
                     "--group-by-level", "--starts", "2", "--max-iters", "20"]) == code
        capsys.readouterr()
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("host", ["thread", "daemonic_process"])
    def test_compare_fits_in_process_where_fork_is_unsafe(self, monkeypatch, host):
        """A fork copies only the calling thread, and a daemonic process
        may not have children: there compare makes no pool."""
        import concurrent.futures
        import multiprocessing
        import threading

        args = (shannon_level_set(levels=[40.0, 20.0]),
                [sl.get_law("chinchilla"), sl.get_law("openai")],
                sl.FitConfig(starts=1, max_iters=20), True)
        expected = sl.compare_laws(*args)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", None)
        if host == "thread":
            tables = []
            thread = threading.Thread(target=lambda: tables.append(sl.compare_laws(*args)))
            thread.start()
            thread.join(timeout=120)
            assert not thread.is_alive()
            assert tables == [expected]
        else:
            with multiprocessing.get_context("fork").Pool(1) as pool:
                assert pool.apply(sl.compare_laws, args) == expected


# Runs COMMAND from a fresh, small interpreter and prints its exit code and
# peak RSS in KiB. Linux carries the RSS high-water mark over fork and
# exec, so a child started straight from the test process would report at
# least the test process's own peak.
_PEAK_RSS_LAUNCHER = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


class TestPeakRss:
    """perturb and measure hold a few fixed-size leaves, not the vector."""

    BUDGET_MB = 32.0
    SLOPE_MB = 8.0

    def _peak_mb(self, args):
        src = str(Path(sl.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", _PEAK_RSS_LAUNCHER, sys.executable, "-m", "scalelaws.cli",
             *args],
            env=env, capture_output=True, text=True, timeout=300,
        )
        code, kib = proc.stdout.split()
        assert code == "0", proc.stderr
        return int(kib) / 1024.0

    def test_peak_rss_bounded_and_flat_in_file_size(self, tmp_path):
        baseline = self._peak_mb(["--version"])
        peaks = {}
        for n in (2_000_000, 8_000_000):
            src, out = tmp_path / f"w{n}.wvec", tmp_path / f"p{n}.wvec"
            values = np.random.default_rng(n).standard_normal(n, dtype=np.float32)
            sl.write_wvec(src, sl.WeightVector(values))
            del values
            peaks["perturb", n] = self._peak_mb(
                ["perturb", "--in", str(src), "--snr-db", "20", "--out", str(out),
                 "--no-timestamp"])
            peaks["measure", n] = self._peak_mb(
                ["measure", "--original", str(src), "--perturbed", str(out)])
        for (command, n), peak in peaks.items():
            assert peak - baseline < self.BUDGET_MB, (command, n, peak, baseline)
        for command in ("perturb", "measure"):
            growth = peaks[command, 8_000_000] - peaks[command, 2_000_000]
            assert abs(growth) < self.SLOPE_MB, (command, peaks)


class TestExtremeSnr:
    """SNRs whose noise leaves the float range are one validation error."""

    @pytest.mark.parametrize("snr_db", ["4000", "-4000", "-3100", "-3000"])
    def test_rejected_without_output(self, tmp_path, capsys, snr_db):
        src = tmp_path / "w.wvec"
        values = np.random.default_rng(12).normal(0, 0.02, 1000).astype(np.float32)
        sl.write_wvec(src, sl.WeightVector(values))
        out = tmp_path / "out.wvec"
        code = main(["perturb", "--in", str(src), f"--snr-db={snr_db}", "--seed", "1",
                     "--out", str(out), "--no-timestamp"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error[validation]: snr_db ")
        assert err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["w.wvec"]


FIT_PARAMS = (1.0, 2.0, 0.05, 0.005, 0.05, 0.2, 0.8, 0.7, 1.6)


def fit_record():
    """A shannon_full record as FitResult.to_dict writes it."""
    return sl.FitResult(
        law_id="shannon_full", params=sl.ParamVector("shannon_full", FIT_PARAMS),
        normalization=sl.Normalization(1.0, 1.0), sse=0.0, r2_train=1.0, n_obs=1,
        converged=True, iterations_used=0, start_index_won=0, seed=0, objective_space="loss",
    ).to_dict()


def edited(path, value=None, drop=False):
    """A function making the fit command's payload with the record key at
    `path` set to `value`, or dropped."""
    def make():
        record = fit_record()
        *parents, key = path
        target = record
        for parent in parents:
            target = target[parent]
        if drop:
            del target[key]
        else:
            target[key] = value
        return {"fit": record, "manifest": {"command": "fit"}}
    return make


def fit_commands(fit_path, tmp_path):
    """report and grid --basin on one fit JSON, each with the files it writes."""
    report, grid, basin = (tmp_path / name for name in ("exponents.json", "grid.csv", "basin.json"))
    return [
        (["report", "--fit", str(fit_path), "--out", str(report)], [report]),
        (["grid", "--fit", str(fit_path), "--n-min", "1e-2", "--n-max", "1e3",
          "--d-min", "1e-2", "--d-max", "1e3", "--n-steps", "3", "--d-steps", "3",
          "--out", str(grid), "--basin", str(basin)],
         [grid, basin, tmp_path / "grid.csv.manifest.json"]),
    ]


class TestFitJsonReader:
    """A malformed fit JSON is one error[validation] line naming the file
    and the key, exit 2, and no output."""

    @pytest.mark.parametrize("make, message", [
        (lambda: [1], "expected a JSON object, got [1]"),
        (lambda: {"fit": 5}, "expected a JSON object, got 5"),
        (edited(("params", "beta"), "x"), "params.beta must be a positive finite number"),
        (edited(("params", "beta"), True), "params.beta must be a positive finite number"),
        (edited(("params",), [1, 2]), "params must be a JSON object"),
        (edited(("law_id",), "gpt"), "law_id must be one of"),
        (edited(("params", "beta"), -0.5), "params.beta must be a positive finite number"),
        (edited(("normalization",), drop=True), "missing key normalization"),
        (edited(("normalization", "x_scale"), 1.0), "unexpected key normalization.x_scale"),
        (edited(("sse",), None), "sse must be a finite number"),
        (edited(("r2_train",), "0.9"), "r2_train must be a finite number or null"),
        (edited(("objective_space",), "logits"), "objective_space must be one of"),
        (edited(("x_orientation",), "mitigating"), "x_orientation must be null for shannon_full"),
        (lambda: b"\xff\xfe{}", "not UTF-8 JSON"),
    ], ids=["list", "fit_not_object", "string_param", "bool_param", "params_list",
            "unknown_law", "negative_param", "missing_normalization",
            "extra_normalization_key", "null_sse", "string_r2", "bad_objective_space",
            "bad_x_orientation", "not_utf8"])
    def test_malformed_fit_json(self, tmp_path, capsys, make, message):
        fit_path = tmp_path / "fit.json"
        payload = make()
        if isinstance(payload, bytes):
            fit_path.write_bytes(payload)
        else:
            fit_path.write_text(json.dumps(payload), encoding="utf-8")
        for argv, _ in fit_commands(fit_path, tmp_path):
            code = main(argv)
            err = capsys.readouterr().err
            assert code == 2, (argv[0], err)
            assert err.startswith(f"error[validation]: {fit_path}: "), err
            assert message in err
            assert err.count("\n") == 1
        assert [p.name for p in tmp_path.iterdir()] == ["fit.json"]

    @pytest.mark.parametrize("text, shown", [
        (json.dumps({"fit": [0.5] * 200_000}), "got a 200000-item JSON array"),
        ("[" * 300 + "]" * 300, "got a 1-item JSON array"),
        (json.dumps(edited(("sse",), "g" * 10_000)()), "got a 10000-character JSON string"),
    ], ids=["long_array", "deep_array", "long_string"])
    def test_large_values_are_named_not_printed(self, tmp_path, capsys, text, shown):
        fit_path = tmp_path / "fit.json"
        fit_path.write_text(text, encoding="utf-8")
        for argv, _ in fit_commands(fit_path, tmp_path):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.endswith(f"{shown}\n") and err.count("\n") == 1, err
            assert len(err.encode()) < 200

    def test_bare_record_reads_as_the_fit_payload(self, tmp_path):
        bare, wrapped = tmp_path / "bare.json", tmp_path / "wrapped.json"
        bare.write_text(json.dumps(fit_record()), encoding="utf-8")
        wrapped.write_text(json.dumps({"fit": fit_record()}), encoding="utf-8")
        assert read_fit(str(bare)) == read_fit(str(wrapped))

    @staticmethod
    def _mutate(holder, mutations):
        """Drop, add or retype keys below holder[""]; a mutation whose path
        no longer leads to a key is skipped."""
        for op, path, value in mutations:
            *parents, key = ("",) + path
            container = holder
            for part in parents:
                container = container.get(part) if isinstance(container, dict) else None
            if not isinstance(container, dict) or key not in container:
                continue
            if op == "drop" and path:
                del container[key]
            elif op == "add" and isinstance(container[key], dict):
                container[key]["extra"] = value
            elif op == "retype":
                container[key] = value

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(st.lists(st.tuples(
        st.sampled_from(["drop", "add", "retype"]),
        st.sampled_from(
            [(), ("fit",)] + [("fit", key) for key in fit_record()]
            + [("fit", "params", name) for name in sl.get_law("shannon_full").param_names]
            + [("fit", "normalization", "n_scale"), ("fit", "normalization", "d_scale")]),
        # every JSON type, booleans beside the numbers they equal
        st.sampled_from([None, True, False, 0, 1, 2.5, -1.0, "x", [1, 2], {"a": 1}]),
    ), min_size=1, max_size=3))
    def test_mutated_fit_json_keeps_the_contract(self, mutations):
        holder = {"": {"fit": fit_record(), "manifest": {"command": "fit"}}}
        self._mutate(holder, mutations)
        with tempfile.TemporaryDirectory() as tmp:
            fit_path = Path(tmp) / "fit.json"
            fit_path.write_text(json.dumps(holder[""]), encoding="utf-8")
            for argv, outputs in fit_commands(fit_path, Path(tmp)):
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    code = main(argv)
                err = err.getvalue()
                assert code in (0, 2), (mutations, argv[0], err)
                if code == 2:
                    assert err.startswith(f"error[validation]: {fit_path}: "), err
                    assert err.count("\n") == 1
                    assert not any(path.exists() for path in outputs)
                else:
                    assert err == ""


def _failing_open(file, mode="r", *args, **kwargs):
    """open() whose files for writing get the first half of their first
    write to the disk and then fail with ENOSPC."""
    fh = open(file, mode, *args, **kwargs)
    if set(mode) & set("wxa+"):
        write = fh.buffer.write

        def fail(data):
            raw = bytes(data)
            write(raw[:len(raw) // 2])
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        fh.buffer.write = fail
    return fh


OUTPUT_WRITERS = ["fit", "compare", "extrapolate", "grid", "report", "perturb", "measure",
                  "wvec-pack", "wvec-unpack", "write_wvec", "write_weights_text", "to_csv"]


class TestOutputRule:
    """Every command's --out and every library writer's path follow one
    rule: a symlink is written through and stays a link, a FIFO is
    written in place, a replaced file keeps its permission bits, and a
    failed run leaves the old file and no temporary file."""

    @pytest.fixture(params=OUTPUT_WRITERS)
    def write(self, request, tmp_path, monkeypatch):
        """`write(directory)` makes the output `out` in `directory` and
        returns the exit code; a library writer's OSError counts as 2,
        as the CLI reports it."""
        inputs = tmp_path / "inputs"
        inputs.mkdir()
        obs = write_csv_from_set(inputs / "obs.csv", shannon_level_set(levels=[40.0]))
        fit_path = inputs / "fit.json"
        fit_path.write_text(json.dumps({"fit": fit_record()}), encoding="utf-8")
        weights = sl.WeightVector(np.random.default_rng(10).normal(0, 1, 100))
        w, p, txt = (str(inputs / name) for name in ("w.wvec", "p.wvec", "w.txt"))
        sl.write_wvec(w, weights)
        sl.write_wvec(p, sl.WeightVector(np.random.default_rng(11).normal(0, 1, 100)))
        sl.write_weights_text(txt, weights)
        grid_args = ["--fit", str(fit_path), "--n-min", "1", "--n-max", "10",
                     "--d-min", "1", "--d-max", "10"]
        argv = {
            "fit": ["fit", "--data", obs, "--law", "chinchilla", "--starts", "2"],
            "compare": ["compare", "--data", obs, "--laws", "chinchilla", "--starts", "2"],
            "extrapolate": ["extrapolate", "--data", obs, "--laws", "chinchilla",
                            "--mode", "token", "--j", "8", "--starts", "2"],
            "grid": ["grid", *grid_args, "--basin", "basin.json"],
            "report": ["report", "--fit", str(fit_path)],
            "perturb": ["perturb", "--in", w, "--snr-db", "20"],
            "measure": ["measure", "--original", w, "--perturbed", p],
            "wvec-pack": ["wvec-pack", "--in", txt],
            "wvec-unpack": ["wvec-unpack", "--in", w],
        }.get(request.param)
        library = {
            "write_wvec": lambda: sl.write_wvec("out", weights),
            "write_weights_text": lambda: sl.write_weights_text("out", weights),
            "to_csv": lambda: sl.grid_eval(
                sl.get_law("chinchilla"), sl.ParamVector("chinchilla", (2.0, 3.0, 1.0, 0.5, 0.5)),
                sl.GridSpec(1.0, 10.0, 1.0, 10.0, n_steps=40, d_steps=40)).to_csv("out"),
        }.get(request.param)

        def run(directory):
            directory.mkdir(exist_ok=True)
            monkeypatch.chdir(directory)
            if argv is not None:
                return main([*argv, "--out", "out", "--no-timestamp"])
            try:
                library()
            except OSError:
                return 2
            return 0

        return run

    @staticmethod
    def _plain(tmp_path, write):
        assert write(tmp_path / "plain") == 0
        return (tmp_path / "plain" / "out").read_bytes()

    @staticmethod
    def _linked(tmp_path):
        """`run/out`, a symlink to `target/real`, which holds b"old"."""
        target = tmp_path / "target" / "real"
        target.parent.mkdir()
        target.write_bytes(b"old")
        (tmp_path / "run").mkdir()
        (tmp_path / "run" / "out").symlink_to(target)
        return tmp_path / "run", target

    def test_symlink_is_written_through(self, tmp_path, write):
        expected = self._plain(tmp_path, write)
        run, target = self._linked(tmp_path)
        assert write(run) == 0
        assert (run / "out").is_symlink()
        assert target.read_bytes() == expected
        assert [p.name for p in target.parent.iterdir()] == ["real"]

    def test_fifo_is_written_in_place(self, tmp_path, write):
        expected = self._plain(tmp_path, write)
        fifo = tmp_path / "run" / "out"
        fifo.parent.mkdir()
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()),
                                  daemon=True)
        reader.start()
        code = write(fifo.parent)
        reader.join(timeout=30)
        assert not reader.is_alive()
        assert code == 0
        assert received == [expected]
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)

    def test_replaced_file_keeps_its_mode(self, tmp_path, write):
        expected = self._plain(tmp_path, write)
        out = tmp_path / "run" / "out"
        out.parent.mkdir()
        out.write_bytes(b"old")
        out.chmod(0o600)
        assert write(out.parent) == 0
        assert stat.S_IMODE(out.stat().st_mode) == 0o600
        assert out.read_bytes() == expected

    def test_failed_run_leaves_target_unchanged(self, tmp_path, write, monkeypatch):
        run, target = self._linked(tmp_path)
        monkeypatch.setattr(perturb_module, "open", _failing_open, raising=False)
        assert write(run) == 2
        assert target.read_bytes() == b"old"
        assert (run / "out").is_symlink()
        assert [p.name for p in target.parent.iterdir()] == ["real"]
        assert [p.name for p in run.iterdir()] == ["out"]


class TestSymlinkLoop:
    """A symlink loop at any path a run reads or writes is one validation
    error naming the path, not a traceback."""

    @pytest.mark.parametrize("argv", [
        ["wvec-pack", "--in", "w.txt", "--out", "loop"],
        ["wvec-pack", "--in", "loop", "--out", "w.wvec"],
        ["perturb", "--in", "loop", "--snr-db", "20", "--out", "p.wvec"],
        ["fit", "--data", "loop", "--law", "chinchilla", "--out", "fit.json"],
        ["report", "--fit", "fit.json", "--out", "loop"],
    ], ids=["output", "input", "perturb_input", "fit_input", "json_output"])
    def test_loop_is_a_validation_error(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "w.txt").write_text("1.5\n-2.0\n", encoding="utf-8")
        (tmp_path / "fit.json").write_text(json.dumps({"fit": fit_record()}), encoding="utf-8")
        (tmp_path / "loop").symlink_to("loop")
        before = sorted(p.name for p in tmp_path.iterdir())
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error[validation]: [Errno {errno.ELOOP}] {os.strerror(errno.ELOOP)}: 'loop'\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == before

    def test_library_writer_names_the_loop(self, tmp_path):
        loop = tmp_path / "loop"
        loop.symlink_to(loop)
        with pytest.raises(OSError) as info:
            sl.write_wvec(loop, sl.WeightVector(np.ones(3)))
        assert (info.value.errno, info.value.filename) == (errno.ELOOP, str(loop))
        assert [p.name for p in tmp_path.iterdir()] == ["loop"]
