"""Traced replay: the layers' public functions, called one by one in spans.

A traced run calls the same library functions the CLI commands call, in
the same order, from outside the program, and records a span around each
call. Fits are replayed as ``fitter.enumerate_starts`` plus one
``fitter.local_solve`` per start, which exposes the per-start iteration
counts that ``fit`` does not return. Each replay has a plain twin, the
same work through the program's own top-level calls with no spans; the
twin's time is what the CLI's overhead and the tracing overhead are
measured against. Parity checks require the replay to reproduce the
untraced outputs exactly, so the per-layer numbers describe the same
work.
"""

from __future__ import annotations

import filecmp
import json
import math
import statistics
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

import numpy as np

import inputs
import scalelaws as sl
from scalelaws.fitter import enumerate_starts, fit_result_from_dict
from scalelaws.laws import apply_orientation, evaluate_raw, jacobian_fd_arrays
from stages import SNR_TARGET_DB, Compare, Extrapolate, Grid, Recovery, Wvec

JACOBIAN_STEP = 1e-6
MICRO_BATCH_S = 0.02
MICRO_BATCHES = 5


class Tracer:
    """Spans kept in memory: [name, parent index, start, end]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = [name, self._stack[-1] if self._stack else -1, time.perf_counter(), None]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            self._stack.pop()
            record[3] = time.perf_counter()

    def summary(self) -> dict[str, dict]:
        """Calls, total and self time per span name; self time excludes children."""
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for (name, _, start, end), children in zip(self.spans, child_time):
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - children
        return out

    def total(self, name: str) -> float:
        return sum(end - start for n, _, start, end in self.spans if n == name)

    def children(self, record: list) -> list[list]:
        index = next(i for i, s in enumerate(self.spans) if s is record)
        return [s for s in self.spans if s[1] == index]


class NullTracer:
    """Stands in for a Tracer in the plain twins: records nothing."""

    def span(self, name: str):
        return nullcontext()


@contextmanager
def timed(durations: list[float]):
    start = time.perf_counter()
    try:
        yield
    finally:
        durations.append(time.perf_counter() - start)


@dataclass
class ReplayedFit:
    """What ``fit`` returns, plus the per-start counters it does not."""

    params: sl.ParamVector
    sse: float
    start_index_won: int
    r2_train: float | None
    iterations: list[int] = field(default_factory=list)
    capped: int = 0
    solve_s: float = 0.0


def replay_fit(tracer: Tracer, law: sl.LawSpec, data: sl.ObservationSet,
               config: sl.FitConfig) -> ReplayedFit:
    """``fit`` as enumerate_starts + local_solve per start, same winner rule."""
    law = apply_orientation(law, config.x_orientation)
    with tracer.span("fitter.fit"):
        with tracer.span("fitter.enumerate_starts"):
            starts = enumerate_starts(config, law.n_params)
        best, iterations, capped, solve_s = None, [], 0, 0.0
        for index, u0 in enumerate(starts):
            with tracer.span("fitter.local_solve") as span:
                try:
                    params, sse, iters, converged = sl.local_solve(law, data, u0, config)
                except sl.FitError:
                    params, sse, iters, converged = None, math.inf, 0, False
            solve_s += span[3] - span[2]
            iterations.append(iters)
            capped += iters >= config.max_iters and not converged
            if math.isfinite(sse) and (best is None or sse < best[1]):
                best = (index, sse, params)
        if best is None:
            raise sl.FitError(f"{law.law_id}: every start diverged (non-finite SSE)")
        index, sse, params = best
        with tracer.span("metrics.r_squared"):
            pred = sl.predict_dataset(law, params, data)
            try:
                r2 = sl.r_squared(sl.EvalPairs.of(pred, data.losses()))
            except (sl.UndefinedVarianceError, sl.DataValidationError):
                r2 = None
    return ReplayedFit(params, sse, index, r2, iterations, capped, solve_s)


def _same_fit(replayed: ReplayedFit, result: sl.FitResult | None) -> bool:
    return (result is not None and replayed.start_index_won == result.start_index_won
            and replayed.sse == result.sse and replayed.params == result.params)


class Replay:
    """The traced run of one workload: plain twins, replays, parity, layers."""

    def __init__(self, bench) -> None:
        self.bench = bench
        self.tracer = Tracer()
        self.null = NullTracer()
        self.plain_s: dict[str, float] = {}
        self.replay_s: dict[str, float] = {}
        self.metrics: dict[str, tuple[float, str]] = {}

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def parity(self, ok: bool, what: str) -> None:
        self.bench.check(ok, f"parity: {what}")

    def _cli_overhead(self, command: str, wall_metric: str, setup_s: float) -> None:
        wall = statistics.median(self.bench.samples[wall_metric])
        self.put(f"cli.overhead_s.{command}", wall - setup_s - self.plain_s[command], "s")

    # -- laws ----------------------------------------------------------
    @staticmethod
    def _per_call_us(call) -> float:
        start = time.perf_counter()
        call()
        reps = max(1, int(MICRO_BATCH_S / max(time.perf_counter() - start, 1e-7)))
        batches = []
        for _ in range(MICRO_BATCHES):
            start = time.perf_counter()
            for _ in range(reps):
                call()
            batches.append((time.perf_counter() - start) / reps)
        return statistics.median(batches) * 1e6

    def laws(self, table: inputs.Table) -> None:
        """Evaluation and FD-Jacobian cost at the recovery design size, and
        for chinchilla at the largest per-level training group of `table`."""
        for law in sl.law_registry():
            case = inputs.recovery_case(law, inputs.trial_seed(0, 0))
            n, d = case.data.n_norm(), case.data.d_norm()
            x = case.data.x_values() if law.needs_x else None
            theta = np.asarray(case.true_params.values)
            self.put(f"laws.eval_us.{law.law_id}",
                     self._per_call_us(lambda: evaluate_raw(law, theta, n, d, x)), "us")
            self.put(f"laws.jacobian_us.{law.law_id}", self._per_call_us(
                lambda: jacobian_fd_arrays(law, theta, n, d, x, JACOBIAN_STEP)), "us")
        law = sl.get_law("chinchilla")
        k, j = table.joint_specs()[-1]
        sizes, tokens = table.axes()
        n = np.repeat(sizes[:k], j) / inputs.SCALE
        d = np.tile(tokens[:j], k) / inputs.SCALE
        theta = np.asarray(inputs.chinchilla_level_params(inputs.SNR_LEVELS[0]).values)
        self.put("laws.eval_us_100k.chinchilla",
                 self._per_call_us(lambda: evaluate_raw(law, theta, n, d)), "us")
        self.put("laws.jacobian_us_100k.chinchilla", self._per_call_us(
            lambda: jacobian_fd_arrays(law, theta, n, d, None, JACOBIAN_STEP)), "us")

    # -- fitter (recovery sweep) ---------------------------------------
    def recovery(self, stage: Recovery) -> None:
        """Replays every fit the untraced sweep made; per-law fitter counters."""
        self.plain_s["recovery"] = sum(stage.per_fit_ms()) / 1e3
        by_law: dict[str, list[ReplayedFit]] = {law.law_id: [] for law in sl.law_registry()}
        start = time.perf_counter()
        for law_id, trial, result in stage.results:
            case = inputs.recovery_case(sl.get_law(law_id), trial)
            try:
                replayed = replay_fit(self.tracer, case.law, case.data, case.config)
            except sl.FitError:
                self.parity(result is None, f"recovery {case.law.law_id}: replay diverged")
                continue
            self.parity(_same_fit(replayed, result),
                        f"recovery {case.law.law_id} trial {case.config.seed}: winner/SSE/params")
            by_law[case.law.law_id].append(replayed)
        self.replay_s["recovery"] = time.perf_counter() - start
        for law_id, fits in by_law.items():
            starts = sum(len(f.iterations) for f in fits)
            iters = sum(sum(f.iterations) for f in fits)
            useful = sum(f.iterations[f.start_index_won] for f in fits)
            self.put(f"fitter.starts_per_fit.{law_id}", starts / max(len(fits), 1), "count")
            self.put(f"fitter.iters_per_fit.{law_id}", iters / max(len(fits), 1), "count")
            self.put(f"fitter.capped_start_frac.{law_id}",
                     sum(f.capped for f in fits) / max(starts, 1), "frac")
            self.put(f"fitter.useful_iter_frac.{law_id}", useful / max(iters, 1), "frac")
            self.put(f"fitter.ms_per_iter.{law_id}",
                     sum(f.solve_s for f in fits) * 1e3 / max(iters, 1), "ms")

    # -- compare -------------------------------------------------------
    def _compare_library(self, stage: Compare, tracer, fit_fn) -> list:
        """What `compare --group-by-level --x-fit-mode joint` computes."""
        with tracer.span("dataset.load"):
            data = sl.load_observations(stage.csv, normalization=sl.Normalization(1e9, 1e9))
        with tracer.span("dataset.group"):
            groups = sl.group_by_level(data)
        config = sl.FitConfig(starts=4, random_starts=4, seed=0, max_iters=200,
                              objective_space="log_loss", x_orientation="mitigating")
        laws = sl.law_registry() if stage.laws == "all" else [
            sl.get_law(law_id) for law_id in stage.laws.split(",")]
        rows = []
        for law in laws:
            oriented = apply_orientation(law, "mitigating")
            cells = []
            if law.needs_x:
                try:
                    joint = fit_fn(oriented, data, config)
                    for _, group in groups:
                        with tracer.span("metrics.r_squared"):
                            try:
                                pred = sl.predict_dataset(oriented, joint.params, group)
                                cells.append(sl.r_squared(sl.EvalPairs.of(pred, group.losses())))
                            except sl.ScaleLawsError:
                                cells.append(None)
                except sl.ScaleLawsError:
                    cells = [None] * len(groups)
            else:
                for _, group in groups:
                    try:
                        cells.append(fit_fn(oriented, group, config).r2_train)
                    except sl.ScaleLawsError:
                        cells.append(None)
            valid = [(i, r2) for i, r2 in enumerate(cells) if r2 is not None]
            with tracer.span("metrics.summarize_levels"):
                summary = list(sl.summarize_levels(valid)) if valid else [None, None]
            rows.append([law.law_id, cells, *summary])
        return rows

    def compare(self, stage: Compare, cli_table: dict | None, setup_s: float) -> None:
        durations: list[float] = []
        with timed(durations):
            self._compare_library(stage, self.null, sl.fit)
        with timed(durations), self.tracer.span("cli.compare"):
            rows = self._compare_library(
                stage, self.tracer, lambda *a: replay_fit(self.tracer, *a))
        self.plain_s["compare"], self.replay_s["compare"] = durations
        cli_rows = [[row["law_id"], [c["r2"] for c in row["cells"]], row["avg"], row["std"]]
                    for row in (cli_table or {}).get("rows", [])]
        self.parity(rows == cli_rows, "compare cells differ from the CLI table")
        self._cli_overhead("compare", "compare_s", setup_s)

    # -- dataset, extrapolation ----------------------------------------
    def _extrapolate_replay(self, stage: Extrapolate) -> tuple[sl.ObservationSet, list]:
        """cmd_extrapolate -> progressive_sweep -> run_extrapolation, per_level."""
        tracer = self.tracer
        with tracer.span("dataset.load"):
            data = sl.load_observations(stage.csv, normalization=sl.Normalization(1e9, 1e9))
        for spec in stage.specs():  # the CLI validates every split first
            with tracer.span("extrapolation.split"):
                sl.make_split(data, spec)
        law = sl.get_law("chinchilla")
        config = sl.FitConfig(starts=2, random_starts=0, seed=0, max_iters=200,
                              objective_space="log_loss")
        cells, fits = [], []
        for spec in stage.specs():
            with tracer.span("extrapolation.run_extrapolation"):
                with tracer.span("extrapolation.split"):
                    train, test = sl.make_split(data, spec)
                stage.check_counts(spec, len(train), len(test))
                with tracer.span("dataset.group"):
                    test_groups = sl.group_by_level(test)
                    train_groups = sl.group_by_level(train)
                by_level = {}
                for level, group in train_groups:
                    by_level[level] = replay_fit(tracer, law, group, config)
                    fits.append(by_level[level])
                with tracer.span("extrapolation.score"):
                    pairs = [sl.EvalPairs.of(sl.predict_dataset(law, by_level[level].params, g),
                                             g.losses(), group_label=str(level))
                             for level, g in test_groups]
                    cells.append(sl.pooled_r_squared(pairs))
                    for pair in pairs:
                        try:
                            sl.r_squared(pair)
                        except (sl.UndefinedVarianceError, sl.DataValidationError):
                            pass
        iters = sum(sum(f.iterations) for f in fits)
        self.put("fitter.iters_100k", iters / max(len(fits), 1), "count")
        self.put("fitter.ms_per_iter_100k", sum(f.solve_s for f in fits) * 1e3 / max(iters, 1), "ms")
        return data, cells

    def extrapolate(self, stage: Extrapolate, cli_pooled: list, setup_s: float) -> None:
        durations: list[float] = []
        with timed(durations):
            data = sl.load_observations(stage.csv, normalization=sl.Normalization(1e9, 1e9))
            for spec in stage.specs():
                sl.make_split(data, spec)
            sl.progressive_sweep(data, [sl.get_law("chinchilla")], stage.specs(),
                                 sl.FitConfig(starts=2, random_starts=0, seed=0, max_iters=200,
                                              objective_space="log_loss"))
        del data
        with timed(durations), self.tracer.span("cli.extrapolate"):
            data, cells = self._extrapolate_replay(stage)
        self.plain_s["extrapolate"], self.replay_s["extrapolate"] = durations
        self.parity(cells == cli_pooled, f"pooled R^2 {cells} != CLI {cli_pooled}")
        self._cli_overhead("extrapolate", "extrapolate_s", setup_s)

        load_s = self._total_under("cli.extrapolate", "dataset.load")
        self.put("dataset.load_s", load_s, "s")
        self.put("dataset.load_rows_per_s", len(data) / load_s, "rows/s")
        self.put("extrapolation.fit_s", self._total_under("cli.extrapolate", "fitter.fit"), "s")
        self.put("extrapolation.score_s", self.tracer.total("extrapolation.score"), "s")
        # One call each on the full set, outside the command's own order.
        table = stage.table
        for spec in (sl.SplitSpec("token", j=table.checkpoints // 2),
                     sl.SplitSpec("model", k=table.models // 2),
                     sl.SplitSpec("joint", j=table.checkpoints // 2, k=table.models // 2)):
            with self.tracer.span(f"extrapolation.split.{spec.mode}") as span:
                sl.make_split(data, spec)
            self.put(f"extrapolation.split_s.{spec.mode}", span[3] - span[2], "s")
        with self.tracer.span("dataset.group_by_level") as span:
            sl.group_by_level(data)
        self.put("dataset.group_s", span[3] - span[2], "s")
        with self.tracer.span("dataset.columns") as span:
            data.n_norm(), data.d_norm(), data.losses(), data.x_values()
        self.put("dataset.columns_s", span[3] - span[2], "s")

    def _total_under(self, root: str, name: str) -> float:
        spans = self.tracer.spans
        roots = {i for i, s in enumerate(spans) if s[0] == root}
        total = 0.0
        for s in spans:
            if s[0] != name:
                continue
            parent = s[1]
            while parent >= 0 and parent not in roots:
                parent = spans[parent][1]
            if parent >= 0:
                total += s[3] - s[2]
        return total

    # -- landscape -----------------------------------------------------
    def _grid_library(self, stage: Grid, tracer, out) -> sl.BasinReport:
        record = json.loads(stage.fit.read_text())["fit"]
        result = fit_result_from_dict(record)
        law = sl.with_orientation(sl.get_law(result.law_id), result.x_orientation)
        lo, hi = inputs.BASIN_RANGE
        spec = sl.GridSpec(lo, hi, lo, hi, stage.steps, stage.steps)
        with tracer.span("landscape.grid_eval"):
            grid = sl.grid_eval(law, result.params, spec, normalization=result.normalization)
        with tracer.span("landscape.to_csv"):
            grid.to_csv(out)
        with tracer.span("landscape.detect_basin"):
            return sl.detect_basin(grid)

    def grid(self, stage: Grid, setup_s: float) -> None:
        out = stage.bench.work / "replay_grid.csv"
        durations: list[float] = []
        with timed(durations):
            self._grid_library(stage, self.null, out)
        with timed(durations), self.tracer.span("cli.grid"):
            report = self._grid_library(stage, self.tracer, out)
        self.plain_s["grid"], self.replay_s["grid"] = durations
        cli_basin = json.loads(stage.basin.read_text())["basin"]
        self.parity(filecmp.cmp(out, stage.out, shallow=False), "grid CSV bytes")
        self.parity(json.loads(json.dumps(report.to_dict())) == cli_basin, "basin report")
        out.unlink()
        self._cli_overhead("grid", "grid_s", setup_s)
        to_csv = self.tracer.total("landscape.to_csv")
        self.put("landscape.grid_eval_s", self.tracer.total("landscape.grid_eval"), "s")
        self.put("landscape.basin_s", self.tracer.total("landscape.detect_basin"), "s")
        self.put("landscape.to_csv_s", to_csv, "s")
        self.put("landscape.csv_rows_per_s", stage.steps * stage.steps / to_csv, "rows/s")

    # -- perturb -------------------------------------------------------
    def _perturb_library(self, stage: Wvec, tracer, out, segmented: bool):
        with tracer.span("perturb.read"):
            weights = sl.read_wvec(stage.path)
        seed = int(stage.noise_seed)
        if segmented:
            with tracer.span("perturb.inject_segmented"):
                perturbed, report = sl.inject_segmented(weights, stage.segments(), SNR_TARGET_DB, seed)
            report = [r.to_dict() for r in report]
        else:
            with tracer.span("perturb.inject"):
                perturbed, report = sl.inject(weights, SNR_TARGET_DB, seed)
            report = report.to_dict()
        with tracer.span("perturb.write"):
            sl.write_wvec(out, perturbed)
        return report

    def _measure_library(self, stage: Wvec, tracer) -> float:
        with tracer.span("perturb.read"):
            original = sl.read_wvec(stage.path)
        with tracer.span("perturb.read"):
            perturbed = sl.read_wvec(stage.out)
        with tracer.span("perturb.measure"):
            return sl.measure_snr(original, perturbed)

    def wvec(self, stage: Wvec, setup_s: float, rss_probe) -> None:
        out = stage.bench.work / "replay_perturbed.wvec"
        mb = stage.payload_mb
        for command, segmented, cli_out in (("perturb", False, stage.out),
                                            ("perturb_segmented", True, stage.out_segmented)):
            durations: list[float] = []
            with timed(durations):
                self._perturb_library(stage, self.null, out, segmented)
            with timed(durations), self.tracer.span(f"cli.{command}") as root:
                report = self._perturb_library(stage, self.tracer, out, segmented)
            self.plain_s[command], self.replay_s[command] = durations
            self.parity(filecmp.cmp(out, cli_out, shallow=False), f"{command} output bytes")
            self.parity(report == stage.report(cli_out), f"{command} report")
            for name, _, start, end in self.tracer.children(root):
                if f"{name}_mb_per_s" not in self.metrics:  # read/write: first pass only
                    self.put(f"{name}_mb_per_s", mb / (end - start), "MB/s")
        out.unlink()
        durations = []
        with timed(durations):
            self._measure_library(stage, self.null)
        with timed(durations), self.tracer.span("cli.measure") as root:
            snr = self._measure_library(stage, self.tracer)
        self.plain_s["measure"], self.replay_s["measure"] = durations
        cli_snr = json.loads(stage.measure_out.read_text())["measure"]["empirical_snr_db"]
        self.parity(snr == cli_snr, f"measure {snr} != CLI {cli_snr}")
        name, _, start, end = self.tracer.children(root)[-1]
        self.put(f"{name}_mb_per_s", mb / (end - start), "MB/s")
        self._cli_overhead("perturb", "perturb_s", setup_s)
        self._cli_overhead("measure", "measure_s", setup_s)
        for mode in ("read", "inject"):
            self.put(f"perturb.{mode}_peak_mb", rss_probe(mode, stage.path), "MB")

    def overhead(self) -> None:
        """Traced wall over untraced wall, minus one, over every replayed step."""
        self.put("trace.overhead_frac",
                 sum(self.replay_s.values()) / sum(self.plain_s[k] for k in self.replay_s) - 1.0,
                 "frac")
