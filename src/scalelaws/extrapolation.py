"""Held-out prediction protocols with pooled R-squared scoring.

Three split modes over (model, checkpoint, level) data:

* token: train on each model's first j distinct token counts, predict
  the rest.
* model: train on the k smallest model sizes, predict the larger ones.
* joint: train on the k smallest models restricted to their first j
  token counts; predict the held-out models only at token counts
  strictly beyond the training horizon (the stricter, default reading).
  Passing joint_full_test=True instead tests on every held-out-model
  observation.

Scores concatenate held-out predictions across all perturbation levels
into one flat array before computing R-squared (pooled scoring), which
penalizes per-level offsets that per-level averaging would hide.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset import ObservationSet, distinct_axis_values, group_by_level
from .errors import (
    DataValidationError,
    ScaleLawsError,
    SplitError,
    UndefinedVarianceError,
)
from .fitter import FitConfig, FitResult, fit
from .laws import LawSpec, apply_orientation, predict_dataset
from .metrics import EvalPairs, pooled_r_squared, r_squared

SPLIT_MODES = ("token", "model", "joint")
FIT_MODES = ("per_level", "joint_x")


@dataclass(frozen=True)
class SplitSpec:
    """Which observations to train on.

    Attributes:
        mode: "token", "model", or "joint".
        j: Token checkpoints kept for training (token/joint modes).
        k: Smallest models kept for training (model/joint modes).
    """

    mode: str
    j: int | None = None
    k: int | None = None

    def __post_init__(self) -> None:
        if self.mode not in SPLIT_MODES:
            raise DataValidationError(f"mode must be one of {SPLIT_MODES}, got {self.mode!r}")
        needs_j = self.mode in ("token", "joint")
        needs_k = self.mode in ("model", "joint")
        if needs_j and (self.j is None or self.j < 1):
            raise DataValidationError(f"{self.mode} mode requires j >= 1, got {self.j}")
        if needs_k and (self.k is None or self.k < 1):
            raise DataValidationError(f"{self.mode} mode requires k >= 1, got {self.k}")
        if not needs_j and self.j is not None:
            raise DataValidationError(f"{self.mode} mode takes no j")
        if not needs_k and self.k is not None:
            raise DataValidationError(f"{self.mode} mode takes no k")

    def label(self) -> str:
        if self.mode == "token":
            return f"j={self.j}"
        if self.mode == "model":
            return f"k={self.k}"
        return f"k={self.k},j={self.j}"

    def to_dict(self) -> dict:
        return {"mode": self.mode, "j": self.j, "k": self.k}


def _first_j_tokens(oset: ObservationSet, j: int, rows: np.ndarray) -> np.ndarray:
    """Mask of the `rows` whose token count is among the j smallest
    distinct token counts of their model.

    Raises:
        SplitError: a model of `rows` has fewer than j distinct token
            counts; the first such model in set order is named.
    """
    model, model_ids = oset.model_codes()
    tokens = np.unique(oset.d_raw(), return_inverse=True)[1].ravel()
    width = int(tokens.max()) + 1
    # (model, token) pairs sort by model, then by token count
    pairs, pair_of_row = np.unique(model[rows] * width + tokens[rows], return_inverse=True)
    pair_model = pairs // width
    rank = np.arange(len(pairs)) - np.searchsorted(pair_model, pair_model)
    counts = np.bincount(pair_model, minlength=len(model_ids))
    short = np.isin(model, np.flatnonzero(counts < j)) & rows
    if short.any():
        m = model[np.argmax(short)]
        raise SplitError(
            f"model {model_ids[m]!r} has only {counts[m]} distinct token counts; "
            f"j={j} is unsatisfiable"
        )
    kept = np.zeros(len(oset), dtype=bool)
    kept[rows] = rank[pair_of_row.ravel()] < j
    return kept


def make_split(
    oset: ObservationSet,
    spec: SplitSpec,
    joint_full_test: bool = False,
) -> tuple[ObservationSet, ObservationSet]:
    """Split a set per `spec`, preserving observation order on both sides.

    Both sides are masks of `oset` (`ObservationSet.subset`), so they are
    not checked again.

    Returns:
        (train, test). Token and model modes partition the input. Joint
        mode excludes small-model observations beyond the token horizon
        and (unless joint_full_test) held-out-model observations inside
        it.

    Raises:
        SplitError: the spec is unsatisfiable (too few distinct values,
            or an empty test set).
    """
    if len(oset) == 0:
        raise SplitError("cannot split an empty observation set")

    if spec.mode == "token":
        in_train = _first_j_tokens(oset, spec.j, np.ones(len(oset), dtype=bool))
        in_test = ~in_train
    else:
        sizes = distinct_axis_values(oset, "N")
        if len(sizes) < spec.k + 1:
            raise SplitError(
                f"{spec.mode} mode with k={spec.k} needs at least {spec.k + 1} distinct "
                f"model sizes, found {len(sizes)}"
            )
        small = oset.n_raw() <= sizes[spec.k - 1]
        in_train, in_test = small, ~small
        if spec.mode == "joint":
            model, _ = oset.model_codes()
            in_train = small & _first_j_tokens(oset, spec.j, np.isin(model, model[small]))
            if not joint_full_test:
                d = oset.d_raw()
                in_test = in_test & (d > d[in_train].max())

    test = oset.subset(in_test)
    if len(test) == 0:
        raise SplitError(f"{spec.mode} split {spec.label()} produces an empty test set")
    return oset.subset(in_train), test


@dataclass(frozen=True)
class ExtrapReport:
    """Outcome of one extrapolation run.

    `per_level_fit` holds one fit per level (per_level mode) or exactly
    one joint fit. Per-level scores are None where a level has too few
    or degenerate test observations; the pooled score is the headline
    number.
    """

    law_id: str
    split: SplitSpec
    fit_mode: str
    per_level_fit: tuple[FitResult, ...]
    pooled_r2: float
    per_level_r2: tuple[tuple[object, float | None], ...]
    train_count: int
    test_count: int
    excluded_count: int

    def to_dict(self) -> dict:
        return {
            "law_id": self.law_id,
            "split": self.split.to_dict(),
            "fit_mode": self.fit_mode,
            "pooled_r2": self.pooled_r2,
            "per_level_r2": [[level, r2] for level, r2 in self.per_level_r2],
            "train_count": self.train_count,
            "test_count": self.test_count,
            "excluded_count": self.excluded_count,
            "fits": [f.to_dict() for f in self.per_level_fit],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


def run_extrapolation(
    oset: ObservationSet,
    law: LawSpec,
    spec: SplitSpec,
    config: FitConfig = FitConfig(),
    fit_mode: str | None = None,
    joint_full_test: bool = False,
) -> ExtrapReport:
    """Fit on the training side of a split and score held-out predictions.

    Args:
        oset: Full observation set.
        law: Law to fit (config.x_orientation may override orientation).
        spec: Split specification.
        config: Fit configuration, shared by all (per-level) fits.
        fit_mode: "per_level" fits each level group separately;
            "joint_x" fits once across levels with X as a covariate
            (X laws only). Defaults to joint_x for X laws, per_level
            otherwise.
        joint_full_test: Joint mode only; test on every held-out-model
            observation instead of only those beyond the token horizon.

    Returns:
        ExtrapReport with pooled and per-level scores. Prediction
        failures on any test observation propagate, failing the run.
    """
    oriented = apply_orientation(law, config.x_orientation)
    if fit_mode is None:
        fit_mode = "joint_x" if oriented.needs_x else "per_level"
    if fit_mode not in FIT_MODES:
        raise DataValidationError(f"fit_mode must be one of {FIT_MODES}, got {fit_mode!r}")
    if fit_mode == "joint_x" and not oriented.needs_x:
        raise DataValidationError(f"fit_mode joint_x requires an X-aware law, not {law.law_id}")

    train, test = make_split(oset, spec, joint_full_test=joint_full_test)
    excluded = len(oset) - len(train) - len(test)

    test_groups = group_by_level(test)
    fits: list[FitResult] = []
    pairs: list[EvalPairs] = []

    if fit_mode == "joint_x":
        result = fit(oriented, train, config)
        fits.append(result)
        for level, group in test_groups:
            pred = predict_dataset(oriented, result.params, group)
            pairs.append(EvalPairs.of(pred, group.losses(), group_label=str(level)))
    else:
        train_groups = group_by_level(train)
        train_levels = {level for level, _ in train_groups}
        for level, _ in test_groups:
            if level not in train_levels:
                raise SplitError(
                    f"level {level!r} has test observations but no training observations"
                )
        fit_by_level = {}
        for level, group in train_groups:
            result = fit(oriented, group, config)
            fits.append(result)
            fit_by_level[level] = result
        for level, group in test_groups:
            result = fit_by_level[level]
            pred = predict_dataset(oriented, result.params, group)
            pairs.append(EvalPairs.of(pred, group.losses(), group_label=str(level)))

    pooled = pooled_r_squared(pairs)
    per_level: list[tuple[object, float | None]] = []
    for (level, _), p in zip(test_groups, pairs):
        try:
            per_level.append((level, r_squared(p)))
        except (UndefinedVarianceError, DataValidationError):
            per_level.append((level, None))

    return ExtrapReport(
        law_id=law.law_id,
        split=spec,
        fit_mode=fit_mode,
        per_level_fit=tuple(fits),
        pooled_r2=pooled,
        per_level_r2=tuple(per_level),
        train_count=len(train),
        test_count=len(test),
        excluded_count=excluded,
    )


@dataclass(frozen=True)
class SweepCell:
    pooled_r2: float | None
    error: str | None = None

    def to_dict(self) -> dict:
        return {"pooled_r2": self.pooled_r2, "error": self.error}


@dataclass(frozen=True)
class SweepTable:
    """Laws x splits table of pooled R-squared scores."""

    law_ids: tuple[str, ...]
    specs: tuple[SplitSpec, ...]
    fit_modes: tuple[str, ...]
    cells: tuple[tuple[SweepCell, ...], ...]

    def to_dict(self) -> dict:
        return {
            "columns": [s.label() for s in self.specs],
            "rows": [
                {
                    "law_id": law_id,
                    "fit_mode": mode,
                    "cells": [c.to_dict() for c in row],
                }
                for law_id, mode, row in zip(self.law_ids, self.fit_modes, self.cells)
            ],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def to_text(self) -> str:
        """Aligned table; the best cell in each column is starred."""
        headers = [s.label() for s in self.specs]
        best = []
        for col in range(len(self.specs)):
            scores = [
                row[col].pooled_r2 for row in self.cells if row[col].pooled_r2 is not None
            ]
            best.append(max(scores) if scores else None)
        name_width = max([len("Method")] + [len(l) for l in self.law_ids])
        col_width = max([10] + [len(h) + 2 for h in headers])
        lines = ["Method".ljust(name_width) + "".join(h.rjust(col_width) for h in headers)]
        for law_id, row in zip(self.law_ids, self.cells):
            rendered = []
            for col, cell in enumerate(row):
                if cell.pooled_r2 is None:
                    rendered.append("n/a".rjust(col_width))
                else:
                    mark = "*" if best[col] is not None and cell.pooled_r2 == best[col] else " "
                    rendered.append(f"{cell.pooled_r2:.4f}{mark}".rjust(col_width))
            lines.append(law_id.ljust(name_width) + "".join(rendered))
        return "\n".join(lines)


def progressive_sweep(
    oset: ObservationSet,
    laws: Sequence[LawSpec],
    specs: Sequence[SplitSpec],
    config: FitConfig = FitConfig(),
    fit_mode: str | None = None,
    joint_full_test: bool = False,
) -> SweepTable:
    """Full cross-product of laws and splits; per-cell failures recorded.

    Cell order is deterministic: laws in the given order (rows), specs
    in the given order (columns).
    """
    rows = []
    modes = []
    for law in laws:
        row = []
        modes.append(fit_mode or ("joint_x" if law.needs_x else "per_level"))
        for spec in specs:
            try:
                report = run_extrapolation(
                    oset, law, spec, config, fit_mode=fit_mode, joint_full_test=joint_full_test
                )
                row.append(SweepCell(pooled_r2=report.pooled_r2))
            except ScaleLawsError as exc:
                row.append(SweepCell(pooled_r2=None, error=str(exc)))
        rows.append(tuple(row))
    return SweepTable(
        law_ids=tuple(law.law_id for law in laws),
        specs=tuple(specs),
        fit_modes=tuple(modes),
        cells=tuple(rows),
    )
