"""Seeded input generators for the benchmark workloads.

The designs are the ones the test suite uses (``tests/synth.py`` and the
acceptance criteria), restated here so that an edit to the tests never
changes what the benchmark measures:

* recovery cases: criterion 3's 6x8 log grid (4 X levels for X-aware
  laws), noiseless, fit in ``log_loss`` with ``max_iters=300`` and the
  per-law start counts of ``RECOVERY_CONFIGS``;
* the 6-model x 16-checkpoint x 6-level capacity-law CSV of the split
  and replication tests;
* a tall chinchilla table (models x checkpoints x 6 levels) with seeded
  0.5% log-normal noise;
* a ``shannon_full`` fit JSON with criterion 8a's parameters, whose
  noise exponents dominate, so the loss grid has a closed basin;
* a WVEC file of float32 weights drawn from N(0, 0.02^2).

Every generator takes its seed explicitly: the same seed gives the same
bytes.
"""

from __future__ import annotations

import csv
import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import scalelaws as sl
from scalelaws.fitter import FitConfig

# Criterion 3 (recovery).
N_GRID = np.geomspace(0.16, 12.0, 6)
D_GRID = np.geomspace(4.0, 310.0, 8)
X_LEVELS = (2.0, 4.0, 8.0, 16.0)
RECOVERY_CONFIGS = {
    "qid": dict(starts=8, random_starts=24),
    "shannon_full": dict(starts=4, random_starts=8),
    "shannon_extended": dict(starts=4, random_starts=8),
    "shannon_sizeonly_ablation": dict(starts=4, random_starts=8),
    "precision": dict(starts=4, random_starts=8),
}
RECOVERY_DEFAULT = dict(starts=4, random_starts=4)
RECOVERY_MAX_ITERS = 300
EXPONENT_NAMES = ("alpha", "beta", "gamma", "delta", "alpha_prime", "beta_prime")

# The 6x16x6 capacity-law design of tests/synth.py.
MODEL_SIZES = np.array([1.6e8, 4.1e8, 1.0e9, 2.8e9, 6.9e9, 1.2e10])
TOKEN_COUNTS = np.geomspace(4.2e9, 3.07e11, 16)
SNR_LEVELS = (10.0, 12.0, 15.0, 20.0, 30.0, 40.0)
SCALE = 1e9

# Criterion 8a: dominant noise exponents give an interior minimum.
BASIN_PARAMS = (1.0, 2.0, 0.05, 0.005, 0.05, 0.2, 0.8, 0.7, 1.6)
BASIN_RANGE = (1e-2, 1e3)

WVEC_HEADER = struct.Struct("<4sBBQ")  # magic, version, dtype code (0 = f32), count
WEIGHT_STD = 0.02
TABLE_NOISE = 0.005


@dataclass(frozen=True)
class RecoveryCase:
    law: sl.LawSpec
    true_params: sl.ParamVector
    data: sl.ObservationSet
    config: FitConfig


def trial_seed(seed: int, index: int) -> int:
    """The recovery trial seed of round `index` under workload `seed`."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def _random_params(law: sl.LawSpec, rng: np.random.Generator) -> sl.ParamVector:
    # Same ranges as tests/synth.py random_params.
    values = []
    for name in law.param_names:
        if name in EXPONENT_NAMES:
            values.append(rng.uniform(0.3, 0.9))
        elif law.law_id in ("qid", "precision") and name == "d":
            values.append(10.0 ** rng.uniform(-2.0, -1.0))
        else:
            values.append(10.0 ** rng.uniform(-0.3, 0.3))
    return sl.ParamVector(law.law_id, tuple(float(v) for v in values))


def recovery_case(law: sl.LawSpec, seed: int) -> RecoveryCase:
    """Criterion 3's noiseless grid for `law` at trial `seed`."""
    rng = np.random.default_rng(10_000 + seed)
    true = _random_params(law, rng)
    x_levels = X_LEVELS if law.needs_x else (None,)
    observations = []
    for i, n in enumerate(N_GRID):
        for d in D_GRID:
            for x in x_levels:
                loss = sl.predict_loss(law, true, float(n), float(d), x)
                observations.append(sl.Observation(f"m{i}", n * SCALE, d * SCALE, loss, x_level=x))
    data = sl.ObservationSet(tuple(observations), normalization=sl.Normalization(SCALE, SCALE))
    config = FitConfig(
        seed=seed, max_iters=RECOVERY_MAX_ITERS, objective_space="log_loss",
        **RECOVERY_CONFIGS.get(law.law_id, RECOVERY_DEFAULT),
    )
    return RecoveryCase(law, true, data, config)


def _write_rows(path: Path, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["model_id", "n_params", "d_tokens", "x_level", "loss"])
        writer.writerows(rows)


def _shannon_level_params(level: float) -> sl.ParamVector:
    noise = 10.0 ** ((40.0 - level) / 20.0)
    return sl.ParamVector(
        "shannon_full", (1.2, 2.0, 0.004 * noise, 0.01 * noise, 0.3, 0.45, 0.55, 0.6, 1.1)
    )


def write_capacity_csv(path: Path) -> None:
    """The 6x16x6 capacity-law measurement CSV."""
    law = sl.get_law("shannon_full")
    rows = []
    for level in SNR_LEVELS:
        params = _shannon_level_params(level)
        for i, n in enumerate(MODEL_SIZES):
            for d in TOKEN_COUNTS:
                loss = float(sl.predict_loss(law, params, n / SCALE, d / SCALE))
                rows.append([f"m{i}", repr(float(n)), repr(float(d)), repr(level), repr(loss)])
    _write_rows(path, rows)


@dataclass(frozen=True)
class Table:
    """A models x checkpoints x levels chinchilla design and its split sweep."""

    models: int
    checkpoints: int

    @property
    def rows(self) -> int:
        return self.models * self.checkpoints * len(SNR_LEVELS)

    def joint_specs(self) -> list[tuple[int, int]]:
        """(k, j) pairs of the joint-split sweep: 4/8, 5/8 and 6/8 of each axis.

        Training on a quarter of each axis would extrapolate chinchilla
        far enough that pooled R^2 drops to about 0.9 at 0.5% noise.
        """
        return [(self.models * q // 8, self.checkpoints * q // 8) for q in (4, 5, 6)]

    def joint_counts(self, k: int, j: int) -> tuple[int, int, int]:
        """(train, test, excluded) of the joint split, in closed form.

        Every model shares one checkpoint grid, so the training horizon
        is checkpoint j and the test set is the held-out models beyond it.
        """
        levels = len(SNR_LEVELS)
        train = k * j * levels
        test = (self.models - k) * (self.checkpoints - j) * levels
        return train, test, self.rows - train - test

    def axes(self) -> tuple[np.ndarray, np.ndarray]:
        return np.geomspace(1e8, 2e10, self.models), np.geomspace(1e9, 5e11, self.checkpoints)


def chinchilla_level_params(level: float) -> sl.ParamVector:
    """Per-level chinchilla constants; the floor rises as the SNR drops."""
    noise = 10.0 ** ((40.0 - level) / 20.0)
    return sl.ParamVector("chinchilla", (0.55, 1.3, 1.6 + 0.05 * noise, 0.34, 0.28))


def write_table_csv(path: Path, table: Table, seed: int) -> None:
    """Per-level chinchilla losses times seeded 0.5% log-normal noise."""
    law = sl.get_law("chinchilla")
    rng = np.random.default_rng(seed)
    sizes, tokens = table.axes()
    n_norm = np.repeat(sizes, table.checkpoints) / SCALE
    d_norm = np.tile(tokens, table.models) / SCALE
    model_ids = [f"m{i}" for i in range(table.models) for _ in range(table.checkpoints)]
    n_text = [repr(float(v)) for v in n_norm * SCALE]
    d_text = [repr(float(v)) for v in d_norm * SCALE]
    rows = []
    for level in SNR_LEVELS:
        clean = sl.predict_loss(law, chinchilla_level_params(level), n_norm, d_norm)
        loss = clean * np.exp(rng.normal(0.0, TABLE_NOISE, clean.size))
        level_text = repr(level)
        rows.extend(
            [m, n, d, level_text, repr(float(v))]
            for m, n, d, v in zip(model_ids, n_text, d_text, loss)
        )
    _write_rows(path, rows)


def write_basin_fit(path: Path) -> None:
    """A fit JSON (the `fit` command's layout) with criterion 8a's parameters."""
    law = sl.get_law("shannon_full")
    params = sl.ParamVector("shannon_full", BASIN_PARAMS)
    result = sl.FitResult(
        law_id=law.law_id, params=params, normalization=sl.Normalization(1.0, 1.0),
        sse=0.0, r2_train=1.0, n_obs=1, converged=True, iterations_used=0,
        start_index_won=0, seed=0, objective_space="loss",
    )
    Path(path).write_text(json.dumps({"fit": result.to_dict()}, indent=2), encoding="utf-8")


def weights(count: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(count, dtype=np.float32) * np.float32(WEIGHT_STD)).astype("<f4")


def write_wvec(path: Path, values: np.ndarray) -> None:
    """Write float32 `values` in the WVEC container (version 1, code 0)."""
    with open(path, "wb") as fh:
        fh.write(WVEC_HEADER.pack(b"WVEC", 1, 0, values.size))
        fh.write(values.tobytes())
