"""Benchmark of the scalelaws workflow: fit, compare, extrapolate, grid, perturb.

Usage (from the root of a checkout):

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Every workload runs every step of the workflow, so every run reports
every metric; the workload decides which steps get full-size, seeded
inputs and fill the --seconds budget, and which run on a small fixed
probe input once per cycle (the same input for every seed, so their
figures stay steady):

    fit_recovery  the library recovery sweep (criterion 3's design, 10 laws
                  per round) and `compare --laws all` on the 6x16x6 CSV
    table_wvec    `extrapolate` over a 64x256x6 (98,304-row) chinchilla
                  table, `grid --basin` at 400x400, and `perturb`,
                  `perturb --segments` and `measure` on a 20M-value
                  float32 WVEC file (80 MB)

With --trace 0 the run measures end to end: CLI commands run in child
processes and the recovery sweep calls `scalelaws.fit`. With --trace 1 the
run replays every step through the layers' public functions with a span
around each call (see replay.py) and reports the per-layer metrics.

Before the result, stdout carries one `environment` JSON line and one
`details` JSON line (sample counts, failures, fail_frac, span totals). The
last line is the result: {"correct", "attempted", "failed", "metrics"}.
Exit status is 2, with no result, when the checkout holds no `src/scalelaws`.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".bench_work"

WORKLOADS = ("fit_recovery", "table_wvec")
FOCUS = {
    "fit_recovery": {"recovery", "compare"},
    "table_wvec": {"extrapolate", "grid", "wvec"},
}
# Cycles before --seconds may end the loop. Each cycle runs the focal work
# once and the probes once. Four fit_recovery cycles of five recovery rounds
# give 200 fits, so 20 lie beyond p90; every other cycle runs `compare`,
# whose two outputs must match byte for byte.
MIN_CYCLES = {"fit_recovery": 4, "table_wvec": 4}
RECOVERY_ROUNDS_PER_CYCLE = 5
COMPARE_RUNS = 2
TRACE_RECOVERY_ROUNDS = 10
PROBE_SEED = 0
FULL_TABLE = (64, 256)
PROBE_TABLE = (8, 32)
FULL_GRID, PROBE_GRID = 400, 48
FULL_WVEC, PROBE_WVEC = 20_000_000, 1_000_000
PROBE_COMPARE_LAWS = "shannon_full,chinchilla"


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {value}")
    return value


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=_seed, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _openblas() -> dict:
    """Runtime OpenBLAS config and thread count, from the library numpy loaded."""
    import numpy

    info: dict = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["build"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        pass
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "lib*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", "_64_", ""):
                try:
                    threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                    config = getattr(lib, f"{prefix}_get_config{suffix}")
                except AttributeError:
                    continue
                threads.restype, config.restype = ctypes.c_int, ctypes.c_char_p
                info["config"] = config().decode()
                info["threads"] = threads()
                return info
    return info


def _l3_bytes() -> int | None:
    if shutil.which("lscpu") is None:
        return None
    out = subprocess.run(["lscpu", "-B"], capture_output=True, text=True, check=False).stdout
    for line in out.splitlines():
        if line.startswith("L3 cache:"):
            return int(line.split(":", 1)[1].split()[0])
    return None


def environment(payloads: dict[str, int]) -> dict:
    import numpy

    l3 = _l3_bytes()
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "memory_bytes": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "openblas": _openblas(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "l3_bytes": l3,
        "payload_bytes": payloads,
        "payload_over_l3": {k: v / l3 for k, v in payloads.items()} if l3 else None,
        "notes": [
            "perturb.*_mb_per_s are payload throughput (payload MB / wall time of the "
            "call), not memory bandwidth: the WVEC payload is smaller than L3, and a "
            "4x-LLC array would need about 8x its size in RSS with today's perturb path.",
        ],
    }


class Workload:
    """The stages of one workload, full-size where focal, probes elsewhere."""

    def __init__(self, name: str, seed: int, bench):
        import inputs
        from stages import Compare, Extrapolate, Grid, Recovery, Wvec

        focus = FOCUS[name]
        full = {stage: stage in focus for stage in ("recovery", "compare", "extrapolate",
                                                     "grid", "wvec")}

        def seed_of(stage):
            return seed if full[stage] else PROBE_SEED

        self.name = name
        self.bench = bench
        self.recovery = Recovery(bench, seed_of("recovery"))
        self.compare = Compare(bench, "all" if full["compare"] else PROBE_COMPARE_LAWS)
        self.extrapolate = Extrapolate(
            bench, inputs.Table(*(FULL_TABLE if full["extrapolate"] else PROBE_TABLE)),
            seed_of("extrapolate"))
        self.grid = Grid(bench, FULL_GRID if full["grid"] else PROBE_GRID)
        self.wvec = Wvec(bench, FULL_WVEC if full["wvec"] else PROBE_WVEC, seed_of("wvec"))
        self.full = full

    def prepare(self) -> None:
        for stage in (self.compare, self.extrapolate, self.grid, self.wvec):
            stage.prepare()

    def payloads(self) -> dict[str, int]:
        return {
            "capacity_csv": self.compare.csv.stat().st_size,
            "table_csv": self.extrapolate.csv.stat().st_size,
            "wvec": self.wvec.path.stat().st_size,
        }

    def focal_round(self, cycle: int) -> None:
        if self.name == "fit_recovery":
            for index in range(RECOVERY_ROUNDS_PER_CYCLE):
                self.recovery.run_round(cycle * RECOVERY_ROUNDS_PER_CYCLE + index)
            if cycle % 2:
                self.compare.run()
        else:
            self.extrapolate.run()
            self.grid.run()
            self.wvec.run()

    def probe_round(self, cycle: int) -> None:
        """One pass of every step that is not focal, on its fixed input."""
        if not self.full["recovery"]:
            self.recovery.run_round(cycle)  # fixed trials, distinct per cycle
        if not self.full["compare"]:
            self.compare.run()
        if not self.full["extrapolate"]:
            self.extrapolate.run()
            self.grid.run()
        if not self.full["wvec"]:
            self.wvec.run()

    def measure(self, seconds: float) -> int:
        """Cycles of focal work and one probe round, until `seconds` have passed.

        Probe rounds are interleaved with the focal work, so that every
        metric's samples spread over the whole run: on shared CPUs speed
        drifts over seconds, and medians of samples taken together would
        follow the drift.
        """
        cycles, start = 0, time.perf_counter()
        while cycles < MIN_CYCLES[self.name] or time.perf_counter() - start < seconds:
            self.focal_round(cycles)
            self.probe_round(cycles)
            cycles += 1
        self.extrapolate.check_splits()
        return cycles

    def trace(self, setup_s: float) -> "Replay":
        """One pass of every step, each replayed layer by layer."""
        import inputs
        from replay import Replay

        replay = Replay(self.bench)
        replay.laws(inputs.Table(*FULL_TABLE))
        for index in range(TRACE_RECOVERY_ROUNDS if self.full["recovery"] else 1):
            self.recovery.run_round(index)
        replay.recovery(self.recovery)
        for _ in range(COMPARE_RUNS):
            table = self.compare.run()
        replay.compare(self.compare, table, setup_s)
        replay.extrapolate(self.extrapolate, self.extrapolate.run(), setup_s)
        self.grid.run()
        replay.grid(self.grid, setup_s)
        self.wvec.run()
        replay.wvec(self.wvec, setup_s, self.rss_growth)
        replay.overhead()
        return replay

    def rss_growth(self, mode: str, path: Path) -> float:
        run = self.bench.spawn([sys.executable, str(HERE / "rss_probe.py"), mode, str(path)])
        self.bench.check(run.code == 0, f"rss_probe {mode} exited {run.code}: {run.stderr[-300:]}")
        try:
            return float(json.loads(run.stdout.strip().splitlines()[-1])["growth_mb"])
        except (IndexError, ValueError, KeyError):
            return 0.0  # the failed check above already marks the run incorrect


def hd_quantile(values: list[float], p: float, grid: int = 4096) -> float:
    """Harrell-Davis estimate of quantile `p`: the order statistics weighted
    by a Beta(p(n+1), (1-p)(n+1)) distribution over their ranks.

    The fit times of the 10 laws form a fast and a slow cluster that meet
    near the median, so the plain sample median is one extreme fit of either
    cluster and jumps with it; this estimator averages the neighbouring
    order statistics instead.
    """
    import numpy

    x = sorted(values)
    n = len(x)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    t = (numpy.arange(grid) + 0.5) / grid
    log_pdf = (a - 1) * numpy.log(t) + (b - 1) * numpy.log1p(-t)
    pdf = numpy.exp(log_pdf - log_pdf.max())
    cdf = numpy.concatenate([[0.0], numpy.cumsum(pdf)]) / pdf.sum()
    ranks = numpy.interp(numpy.arange(n + 1) / n, numpy.linspace(0.0, 1.0, grid + 1), cdf)
    return float(numpy.dot(numpy.diff(ranks), x))


def end_to_end(bench, fit_ms: list[float]) -> dict[str, tuple[float, str]]:
    med = {k: statistics.median(bench.samples[k]) for k in (
        "setup_s", "compare_s", "extrapolate_s", "grid_s", "perturb_s",
        "perturb_segmented_s", "measure_s")}
    return {
        "setup_s": (med["setup_s"], "s"),
        "peak_rss_mb": (bench.peak_rss_mb, "MB"),
        "fits_per_s": (len(fit_ms) / (sum(fit_ms) / 1e3), "1/s"),
        "fit_ms_p50": (hd_quantile(fit_ms, 0.5), "ms"),
        "fit_ms_p90": (hd_quantile(fit_ms, 0.9), "ms"),
        "compare_s": (med["compare_s"], "s"),
        "extrapolate_s": (med["extrapolate_s"], "s"),
        "grid_s": (med["grid_s"], "s"),
        "perturb_s": (med["perturb_s"], "s"),
        "perturb_segmented_s": (med["perturb_segmented_s"], "s"),
        "measure_s": (med["measure_s"], "s"),
    }


def run(args: argparse.Namespace) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from stages import RECOVERY_TOLERANCE, Bench

    work = WORK_DIR / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        bench = Bench(ROOT, work)
        workload = Workload(args.workload, args.seed, bench)
        workload.prepare()
        payloads = workload.payloads()
        setup_s = bench.measure_setup()
        details: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
        if args.trace:
            replay = workload.trace(setup_s)
            metrics = replay.metrics
            details["spans"] = replay.tracer.summary()
        else:
            details["cycles"] = workload.measure(args.seconds)
            metrics = end_to_end(bench, workload.recovery.per_fit_ms())
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK_DIR.exists() and not any(WORK_DIR.iterdir()):
            WORK_DIR.rmdir()

    fits = len(workload.recovery.results)
    misses = sum(f.startswith("recovery ") for f in bench.failures)
    details.update(
        samples={k: len(v) for k, v in bench.samples.items()},
        fit_ms_by_law=workload.recovery.median_ms_by_law(),
        peak_rss_mb=bench.rss_by_metric,
        fail_frac=len(bench.failures) / bench.attempted,
        recovery_miss_frac=misses / fits,
        failures=bench.failures[:50],
    )
    print(json.dumps({"environment": environment(payloads)}))
    print(json.dumps({"details": details}))
    # A recovery miss is a failed operation, but criterion 3 itself tolerates
    # up to 5% of them; every other failed check makes the run incorrect.
    correct = len(bench.failures) == misses and misses <= RECOVERY_TOLERANCE * fits
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "scalelaws" / "__init__.py").is_file():
        print(f"error: no scalelaws sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
