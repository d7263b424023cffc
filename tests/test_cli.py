"""End-to-end command tests driven through main(argv)."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import scalelaws as sl
from scalelaws.cli import main

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

    def test_output_in_missing_directory(self, tmp_path, wvec, capsys):
        code = main(["perturb", "--in", str(wvec), "--snr-db", "20",
                     "--out", str(tmp_path / "nodir" / "x.wvec")])
        self._assert_validation_error(code, capsys)


class TestThreadCountDeterminism:
    def _run(self, args, threads):
        src = str(Path(sl.__file__).resolve().parents[1])
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        subprocess.run([sys.executable, "-m", "scalelaws.cli", *args],
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
