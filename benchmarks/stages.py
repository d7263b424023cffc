"""Untraced measurement: the workload's CLI commands and library sweep.

Each stage owns one part of the paper's workflow, generates its inputs,
runs it and checks every output. A check that fails, or a command that
exits non-zero, counts as one failed operation. CLI commands run in
child processes, so each one's wall time includes interpreter and
package start-up, as a user sees it, and its peak RSS is its own.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import inputs
import scalelaws as sl

CLI_TIMEOUT_S = 150.0
SETUP_SPAWNS = 5
RECOVERY_REL_ERR = 1e-4
RECOVERY_R2 = 1.0 - 1e-6
RECOVERY_TOLERANCE = 0.05  # criterion 3 passes at 95 of 100 recoveries
COMPARE_SHANNON_R2 = 1.0 - 1e-6
EXTRAPOLATE_POOLED_R2 = 0.99
SNR_TARGET_DB = 20.0
SNR_TOLERANCE_DB = 0.2
WVEC_SEGMENTS = 4
FIT_FLAGS = ["--seed", "0", "--objective", "log_loss", "--no-timestamp"]


@dataclass
class CliRun:
    code: int
    wall_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


class Bench:
    """Shared state of one benchmark run: child processes, samples, checks."""

    def __init__(self, root: Path, work: Path):
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.peak_rss_mb = 0.0
        self.rss_by_metric: dict[str, float] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def spawn(self, argv: list[str]) -> CliRun:
        """Run `argv` to completion; wall time and peak RSS are the child's."""
        out_path, err_path = self.work / "child.out", self.work / "child.err"
        launcher = [sys.executable, str(Path(__file__).with_name("spawn.py")),
                    str(out_path), str(err_path), str(CLI_TIMEOUT_S), "--", *argv]
        # Own process group, so that an interrupted run can stop the command too.
        proc = subprocess.Popen(launcher, cwd=self.work, env=self.env, stdout=subprocess.PIPE,
                                text=True, start_new_session=True)
        try:
            stdout, _ = proc.communicate()
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        if proc.returncode != 0:
            raise RuntimeError(f"launcher exited {proc.returncode} for {argv}")
        report = json.loads(stdout)
        self.peak_rss_mb = max(self.peak_rss_mb, report["peak_rss_mb"])
        return CliRun(report["code"], report["wall_s"], report["peak_rss_mb"],
                      out_path.read_text(errors="replace"), err_path.read_text(errors="replace"))

    def cli(self, metric: str, *args: str) -> CliRun:
        """Run one `scalelaws` command; its wall time is a sample of `metric`."""
        run = self.spawn([sys.executable, "-m", "scalelaws.cli", *args])
        self.samples[metric].append(run.wall_s)
        self.rss_by_metric[metric] = max(self.rss_by_metric.get(metric, 0.0), run.peak_rss_mb)
        self.check(run.code == 0, f"{args[0]} exited {run.code}: {run.stderr.strip()[-300:]}")
        return run

    def measure_setup(self) -> float:
        """Median time to spawn `scalelaws --version` (interpreter + imports)."""
        argv = [sys.executable, "-m", "scalelaws.cli", "--version"]
        self.spawn(argv)  # warm-up: byte-compiles the package on a fresh checkout
        for _ in range(SETUP_SPAWNS):
            run = self.spawn(argv)
            self.check(run.code == 0, f"--version exited {run.code}")
            self.samples["setup_s"].append(run.wall_s)
        return statistics.median(self.samples["setup_s"])


def file_digest(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def recovered(case: inputs.RecoveryCase, result: sl.FitResult) -> bool:
    """Criterion 3's bar: max relative error <= 1e-4 and R^2 >= 1 - 1e-6."""
    oriented = sl.with_orientation(case.law, result.x_orientation)
    try:
        pred = sl.predict_dataset(oriented, result.params, case.data)
    except sl.ScaleLawsError:
        return False
    obs = case.data.losses()
    rel = float(np.max(np.abs(pred - obs) / obs))
    return rel <= RECOVERY_REL_ERR and result.r2_train is not None and result.r2_train >= RECOVERY_R2


class Recovery:
    """The library recovery sweep: every registered law refit per trial."""

    def __init__(self, bench: Bench, seed: int):
        self.bench = bench
        self.seed = seed
        self.results: list[tuple[str, int, sl.FitResult | None]] = []  # law, trial, result
        self.fit_ms: list[tuple[str, float]] = []  # law, wall ms of one fit

    def cases(self, index: int) -> list[inputs.RecoveryCase]:
        trial = inputs.trial_seed(self.seed, index)
        return [inputs.recovery_case(law, trial) for law in sl.law_registry()]

    def run_round(self, index: int) -> None:
        for case in self.cases(index):
            start = time.perf_counter()
            try:
                result = sl.fit(case.law, case.data, case.config)
            except sl.ScaleLawsError:
                result = None
            self.fit_ms.append((case.law.law_id, (time.perf_counter() - start) * 1e3))
            self.results.append((case.law.law_id, case.config.seed, result))
            self.bench.check(
                result is not None and recovered(case, result),
                f"recovery {case.law.law_id} trial {case.config.seed} missed criterion 3",
            )

    def per_fit_ms(self) -> list[float]:
        return [ms for _, ms in self.fit_ms]

    def median_ms_by_law(self) -> dict[str, float]:
        by_law = defaultdict(list)
        for law_id, ms in self.fit_ms:
            by_law[law_id].append(ms)
        return {law_id: statistics.median(times) for law_id, times in by_law.items()}


class Compare:
    """`compare --group-by-level` over the 6x16x6 capacity-law CSV."""

    def __init__(self, bench: Bench, laws: str):
        self.bench = bench
        self.laws = laws
        self.csv = bench.work / "capacity.csv"
        self.out = bench.work / "compare.json"
        self.first: bytes | None = None

    def prepare(self) -> None:
        inputs.write_capacity_csv(self.csv)

    def args(self) -> list[str]:
        return ["compare", "--data", self.csv.name, "--laws", self.laws, "--group-by-level",
                "--x-orientation", "mitigating", "--x-fit-mode", "joint",
                "--starts", "4", "--random-starts", "4", "--max-iters", "200",
                "--out", self.out.name, *FIT_FLAGS]

    def table(self) -> dict | None:
        try:
            return json.loads(self.out.read_text())["comparison"]
        except (OSError, ValueError, KeyError):
            return None

    def check_table(self, table: dict | None) -> None:
        shannon = [row for row in (table or {}).get("rows", []) if row["law_id"] == "shannon_full"]
        cells = [c["r2"] for row in shannon for c in row["cells"]]
        self.bench.check(
            bool(cells) and all(r2 is not None and r2 >= COMPARE_SHANNON_R2 for r2 in cells),
            f"compare: shannon_full cells below 1 - 1e-6: {cells}",
        )

    def run(self) -> dict | None:
        """One invocation; every invocation writes the same --out, and the
        bytes must equal the first invocation's."""
        self.bench.cli("compare_s", *self.args())
        output = self.out.read_bytes() if self.out.exists() else b""
        table = self.table()
        self.check_table(table)
        if self.first is None:
            self.first = output
        else:
            self.bench.check(output == self.first and output != b"",
                             "compare: two runs differ byte for byte")
        return table


class Extrapolate:
    """`extrapolate` with chinchilla over a joint-split sweep of a tall table."""

    def __init__(self, bench: Bench, table: inputs.Table, seed: int):
        self.bench = bench
        self.table = table
        self.seed = seed
        self.csv = bench.work / "table.csv"
        self.out = bench.work / "extrapolate.json"

    def prepare(self) -> None:
        inputs.write_table_csv(self.csv, self.table, self.seed)

    def specs(self) -> list[sl.SplitSpec]:
        return [sl.SplitSpec("joint", j=j, k=k) for k, j in self.table.joint_specs()]

    def args(self) -> list[str]:
        specs = self.specs()
        return ["extrapolate", "--data", self.csv.name, "--laws", "chinchilla",
                "--mode", "joint", "--j", ",".join(str(s.j) for s in specs),
                "--k", ",".join(str(s.k) for s in specs),
                "--starts", "2", "--max-iters", "200", "--out", self.out.name, *FIT_FLAGS]

    def pooled(self) -> list[float | None]:
        try:
            sweep = json.loads(self.out.read_text())["sweep"]
            return [cell["pooled_r2"] for row in sweep["rows"] for cell in row["cells"]]
        except (OSError, ValueError, KeyError):
            return []

    def run(self) -> list[float | None]:
        self.bench.cli("extrapolate_s", *self.args())
        pooled = self.pooled()
        self.bench.check(
            len(pooled) == len(self.specs())
            and all(r2 is not None and r2 >= EXTRAPOLATE_POOLED_R2 for r2 in pooled),
            f"extrapolate: pooled R^2 below {EXTRAPOLATE_POOLED_R2}: {pooled}",
        )
        return pooled

    def check_counts(self, spec: sl.SplitSpec, train: int, test: int) -> None:
        expected = self.table.joint_counts(spec.k, spec.j)
        got = (train, test, self.table.rows - train - test)
        self.bench.check(got == expected, f"split {spec.label()}: counts {got} != {expected}")

    def check_splits(self) -> None:
        """Train/test/excluded counts of every split against the closed form."""
        try:
            data = sl.load_observations(self.csv)
            splits = [(spec, *sl.make_split(data, spec)) for spec in self.specs()]
        except sl.ScaleLawsError as exc:
            self.bench.check(False, f"loading or splitting {self.csv.name}: {exc}")
            return
        self.bench.check(len(data) == self.table.rows, f"loaded {len(data)} rows")
        for spec, train, test in splits:
            self.check_counts(spec, len(train), len(test))


class Grid:
    """`grid --basin` on the criterion 8a fit, steps x steps cells."""

    def __init__(self, bench: Bench, steps: int):
        self.bench = bench
        self.steps = steps
        self.fit = bench.work / "basin_fit.json"
        self.out = bench.work / "grid.csv"
        self.basin = bench.work / "basin.json"

    def prepare(self) -> None:
        inputs.write_basin_fit(self.fit)

    def args(self) -> list[str]:
        lo, hi = (repr(v) for v in inputs.BASIN_RANGE)
        steps = str(self.steps)
        return ["grid", "--fit", self.fit.name, "--n-min", lo, "--n-max", hi,
                "--d-min", lo, "--d-max", hi, "--n-steps", steps, "--d-steps", steps,
                "--out", self.out.name, "--basin", self.basin.name, "--no-timestamp"]

    def run(self) -> None:
        self.bench.cli("grid_s", *self.args())
        try:
            with open(self.out, "rb") as fh:
                rows = sum(1 for _ in fh) - 1
            interior = json.loads(self.basin.read_text())["basin"]["has_interior_minimum"]
        except (OSError, ValueError, KeyError):
            rows, interior = -1, None
        self.bench.check(rows == self.steps * self.steps, f"grid: {rows} rows")
        self.bench.check(interior is True, f"grid: has_interior_minimum={interior}")


class Wvec:
    """`perturb`, `perturb --segments` and `measure` on a float32 WVEC file."""

    def __init__(self, bench: Bench, count: int, seed: int):
        self.bench = bench
        self.count = count
        self.seed = seed
        self.noise_seed = str(np.random.SeedSequence(seed).generate_state(1)[0])
        self.path = bench.work / "weights.wvec"
        self.out = bench.work / "perturbed.wvec"
        self.out_segmented = bench.work / "perturbed_segmented.wvec"
        self.measure_out = bench.work / "measure.json"
        self.digests: dict[str, set[str]] = defaultdict(set)

    @property
    def payload_mb(self) -> float:
        return self.count * 4 / 1e6

    def segments(self) -> list[int]:
        size = self.count // WVEC_SEGMENTS
        return [size] * (WVEC_SEGMENTS - 1) + [self.count - size * (WVEC_SEGMENTS - 1)]

    def prepare(self) -> None:
        values = inputs.weights(self.count, self.seed)
        inputs.write_wvec(self.path, values)
        weights = sl.WeightVector(values)
        self.sigma2 = sl.noise_sigma2(sl.signal_power(weights), SNR_TARGET_DB)
        self.segment_sigma2 = []
        offset = 0
        for length in self.segments():
            segment = sl.WeightVector(values[offset:offset + length])
            self.segment_sigma2.append(sl.noise_sigma2(sl.signal_power(segment), SNR_TARGET_DB))
            offset += length

    def perturb_args(self, segmented: bool) -> list[str]:
        args = ["perturb", "--in", self.path.name, "--snr-db", repr(SNR_TARGET_DB),
                "--seed", self.noise_seed, "--no-timestamp"]
        if segmented:
            return args + ["--out", self.out_segmented.name,
                           "--segments", ",".join(str(v) for v in self.segments())]
        return args + ["--out", self.out.name]

    def measure_args(self) -> list[str]:
        return ["measure", "--original", self.path.name, "--perturbed", self.out.name,
                "--out", self.measure_out.name, "--no-timestamp"]

    def report(self, out: Path):
        try:
            return json.loads(Path(f"{out}.report.json").read_text())["perturb"]
        except (OSError, ValueError, KeyError):
            return None

    def _calibrated(self, report, sigma2: float) -> bool:
        return (report is not None
                and abs(report["empirical_snr_db"] - SNR_TARGET_DB) <= SNR_TOLERANCE_DB
                and report["sigma2"] == sigma2)

    def _same_bytes(self, out: Path) -> None:
        digests = self.digests[out.name]
        digests.add(file_digest(out) if out.exists() else "")
        self.bench.check(len(digests) == 1, f"{out.name}: same seed gave different bytes")

    def run(self) -> None:
        bench = self.bench
        bench.cli("perturb_s", *self.perturb_args(segmented=False))
        bench.check(self._calibrated(self.report(self.out), self.sigma2),
                    f"perturb: report off target: {self.report(self.out)}")
        self._same_bytes(self.out)

        bench.cli("perturb_segmented_s", *self.perturb_args(segmented=True))
        reports = self.report(self.out_segmented) or []
        bench.check(
            len(reports) == WVEC_SEGMENTS
            and all(self._calibrated(r, s) for r, s in zip(reports, self.segment_sigma2)),
            f"perturb --segments: reports off target: {reports}",
        )
        self._same_bytes(self.out_segmented)

        bench.cli("measure_s", *self.measure_args())
        try:
            snr = json.loads(self.measure_out.read_text())["measure"]["empirical_snr_db"]
        except (OSError, ValueError, KeyError):
            snr = math.nan
        bench.check(abs(snr - SNR_TARGET_DB) <= SNR_TOLERANCE_DB, f"measure: {snr} dB")
