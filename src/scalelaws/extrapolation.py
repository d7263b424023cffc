"""Level fitting, held-out prediction protocols and pooled R-squared.

`fit_levels` is the one place that decides whether a law is fitted to
each perturbation level on its own or once across levels with X as a
covariate. `compare_laws` scores its fits in sample, level by level;
`run_extrapolation` and `progressive_sweep` score them on the held-out
side of a split.

Three split modes over (model, checkpoint, level) data:

* token: train on each model's first j distinct token counts, predict
  the rest.
* model: train on the k smallest model sizes, predict the larger ones.
* joint: train on the k smallest models restricted to their first j
  token counts; predict the held-out models only at token counts
  strictly beyond the training horizon (the stricter, default reading).
  A SplitSpec with joint_full_test=True instead tests on every
  held-out-model observation.

Scores concatenate held-out predictions across all perturbation levels
into one flat array before computing R-squared (pooled scoring), which
penalizes per-level offsets that per-level averaging would hide. A set
in which no row has a level is one level, "all".
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import numpy as np

from .dataset import ObservationSet, distinct_axis_values, group_by_level
from .errors import DataValidationError, ScaleLawsError, ScoreOverflowError, SplitError
from .fitter import FitConfig, FitResult, fit
from .laws import LawSpec, apply_orientation, predict_dataset
from .metrics import STD_KIND, EvalPairs, pooled_r_squared, r_squared, summarize_levels

SPLIT_MODES = ("token", "model", "joint")
FIT_MODES = ("per_level", "joint_x")


@dataclass(frozen=True)
class SplitSpec:
    """Which observations to train on.

    Attributes:
        mode: "token", "model", or "joint".
        j: Token checkpoints kept for training (token/joint modes).
        k: Smallest models kept for training (model/joint modes).
        joint_full_test: Joint mode only; test on every held-out-model
            observation instead of only those beyond the token horizon.
    """

    mode: str
    j: int | None = None
    k: int | None = None
    joint_full_test: bool = False

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
        if self.joint_full_test and self.mode != "joint":
            raise DataValidationError(f"{self.mode} mode takes no joint_full_test")

    def label(self) -> str:
        if self.mode == "token":
            return f"j={self.j}"
        if self.mode == "model":
            return f"k={self.k}"
        return f"k={self.k},j={self.j}"

    def to_dict(self) -> dict:
        return asdict(self)


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


def make_split(oset: ObservationSet, spec: SplitSpec) -> tuple[ObservationSet, ObservationSet]:
    """Split a set per `spec`, preserving observation order on both sides.

    Both sides are masks of `oset` (`ObservationSet.subset`), so they are
    not checked again.

    Returns:
        (train, test). Token and model modes partition the input. Joint
        mode excludes small-model observations beyond the token horizon
        and (unless spec.joint_full_test) held-out-model observations
        inside it.

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
        if spec.mode == "joint":  # every model has one size, so `small` holds whole models
            in_train = _first_j_tokens(oset, spec.j, small)
            if not spec.joint_full_test:
                d = oset.d_raw()
                in_test = in_test & (d > d[in_train].max())

    test = oset.subset(in_test)
    if len(test) == 0:
        raise SplitError(f"{spec.mode} split {spec.label()} produces an empty test set")
    return oset.subset(in_train), test


def _level_groups(oset: ObservationSet, by_level: bool) -> list[tuple[object, ObservationSet]]:
    return group_by_level(oset) if by_level else [("all", oset)]


def _default_fit_mode(law: LawSpec, fit_mode: str | None) -> str:
    return fit_mode or ("joint_x" if law.needs_x else "per_level")


def _try_fit(law: LawSpec, data: ObservationSet, config: FitConfig) -> FitResult | ScaleLawsError:
    try:
        return fit(law, data, config)
    except ScaleLawsError as exc:
        return exc


FitJob = tuple[LawSpec, ObservationSet, FitConfig]

# The jobs of a worker process, set by its initializer (see _run_fits).
_worker_jobs: Sequence[FitJob] = ()


def _set_worker_jobs(jobs: Sequence[FitJob]) -> None:
    global _worker_jobs
    _worker_jobs = jobs


def _run_worker_job(index: int) -> FitResult | ScaleLawsError:
    return _try_fit(*_worker_jobs[index])


def _run_fits(jobs: Sequence[FitJob]) -> list[FitResult | ScaleLawsError]:
    """`_try_fit` of each (law, data, config) job, in job order.

    The jobs are independent, so they are spread over forked worker
    processes, one per usable CPU and at most one per job. They run in
    process instead with one worker, where the platform has no CPU
    affinity call (only platforms with fork have one), in a process that
    runs other threads (a fork copies only the calling thread, so a lock
    another thread holds would stay held in the worker) and in a
    daemonic process, which may not have children. The results are the
    same either way: a worker runs the same code on a copy of the same
    data and hands back its FitResult or ScaleLawsError by pickle, which
    keeps every float and message.
    """
    try:
        workers = min(len(os.sched_getaffinity(0)), len(jobs))
    except AttributeError:  # no CPU affinity call: not Linux
        workers = 1
    if workers > 1:
        import multiprocessing
        import threading

        if threading.active_count() > 1 or multiprocessing.current_process().daemon:
            workers = 1
    if workers < 2:
        return [_try_fit(*job) for job in jobs]
    from concurrent.futures import ProcessPoolExecutor

    # fork, unlike spawn, neither imports numpy and the package again in
    # each worker nor pickles the jobs; a worker that dies raises
    # BrokenProcessPool here instead of hanging
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                             initializer=_set_worker_jobs, initargs=(jobs,)) as pool:
        return list(pool.map(_run_worker_job, range(len(jobs))))


def fit_levels(
    law: LawSpec,
    train: ObservationSet,
    config: FitConfig = FitConfig(),
    fit_mode: str | None = None,
    groups: Sequence[tuple[object, ObservationSet]] | None = None,
    predicts: Sequence[object] = (),
) -> tuple[str, list[FitJob]]:
    """Plan the fits of `law` to a training set: per level ("per_level")
    or once across levels with X as a covariate ("joint_x", X-aware laws
    only); None picks joint_x for X-aware laws and per_level otherwise.

    `groups` are the level groups of `train`, computed when omitted (a
    set in which no row has a level is one level, "all"). Returns the
    resolved mode and its jobs, each a (law, data, config) triple whose
    law carries config.x_orientation: under per_level one job per group,
    in group order, whose fit predicts that level; under joint_x the one
    joint job, whose fit predicts every level, also those absent from
    training. Nothing is fitted here.

    Raises:
        DataValidationError: an unknown mode, or joint_x without X.
        SplitError: per_level and a level of `predicts` has no group.
    """
    law = apply_orientation(law, config.x_orientation)
    fit_mode = _default_fit_mode(law, fit_mode)
    if fit_mode not in FIT_MODES:
        raise DataValidationError(f"fit_mode must be one of {FIT_MODES}, got {fit_mode!r}")
    if fit_mode == "joint_x" and not law.needs_x:
        raise DataValidationError(f"fit_mode joint_x requires an X-aware law, not {law.law_id}")
    if groups is None:
        groups = _level_groups(train, not train.missing_levels().all())
    if fit_mode == "joint_x":
        return fit_mode, [(law, train, config)]
    trained = {level for level, _ in groups}
    for level in predicts:
        if level not in trained:
            raise SplitError(f"level {level!r} has test observations but no training observations")
    return fit_mode, [(law, group, config) for _, group in groups]


def _predict(law: LawSpec, result: FitResult | ScaleLawsError, group: ObservationSet):
    if isinstance(result, ScaleLawsError):
        raise result
    return predict_dataset(law, result.params, group)


def _score(pairs: Callable[[], EvalPairs]) -> tuple[float | None, str | None]:
    """R-squared of the pairs `pairs()` builds, or None and the reason
    there is none: a failed fit or prediction, or an undefined R-squared."""
    try:
        return r_squared(pairs()), None
    except ScaleLawsError as exc:
        return None, str(exc)


def _score_text(score: float, decimals: int) -> str:
    """`score` to `decimals` places, or to four significant digits once
    |score| >= 1e6, so that a diverged fit's score keeps its cell narrow."""
    return f"{score:.4g}" if abs(score) >= 1e6 else f"{score:.{decimals}f}"


def _starred_table(corner: str, min_width: int, headers: Sequence[str], rows) -> str:
    """Aligned text table. Each row is (name, scores, tail): scores fill
    the first columns (see _score_text), "n/a" for None, the best in each
    column starred; tail cells are text for the remaining columns.
    Columns are right-aligned, each at least `min_width` wide, two more
    than its header and one more than its longest cell."""
    best = [max((s for s in column if s is not None), default=None)
            for column in zip(*(scores for _, scores, _ in rows))]
    body = [(name, ["n/a" if s is None else _score_text(s, 4) + ("*" if s == top else " ")
                    for s, top in zip(scores, best)] + list(tail))
            for name, scores, tail in rows]
    name_width = max([len(corner)] + [len(name) for name, _ in body])
    widths = [max([min_width, len(h) + 2] + [len(cells[k]) + 1 for _, cells in body])
              for k, h in enumerate(headers)]
    lines = [corner.ljust(name_width) + "".join(h.rjust(w) for h, w in zip(headers, widths))]
    for name, cells in body:
        lines.append(name.ljust(name_width) + "".join(c.rjust(w) for c, w in zip(cells, widths)))
    return "\n".join(lines)


def _summary(scores: Sequence[tuple[object, float]]) -> tuple[float | None, float | None]:
    """summarize_levels of `scores`, or (None, None) when there are none
    or they overflow the float range."""
    try:
        return summarize_levels(scores) if scores else (None, None)
    except ScoreOverflowError:
        return None, None


@dataclass(frozen=True)
class ComparisonTable:
    """Laws x levels table of in-sample R-squared (see `compare_laws`).

    Each row is (law_id, cells, avg, std). A cell is (r2, error); r2 is
    None, and error says why, when the level's fit failed, its
    prediction left the law's domain or its R-squared is undefined. avg
    and std (population) summarise the row's scores, None if there are
    none or they overflow the float range.
    """

    levels: tuple[str, ...]
    grouped_by_level: bool
    fit_mode: str | None
    rows: tuple[tuple[str, tuple[tuple[float | None, str | None], ...], float | None,
                      float | None], ...]

    def all_failed(self) -> bool:
        return all(r2 is None for _, cells, _, _ in self.rows for r2, _ in cells)

    def to_dict(self) -> dict:
        rows = [{"law_id": law_id, "avg": avg, "std": std,
                 "cells": [{"level": level, "r2": r2, "error": error}
                           for level, (r2, error) in zip(self.levels, cells)]}
                for law_id, cells, avg, std in self.rows]
        return {"levels": list(self.levels), "grouped_by_level": self.grouped_by_level,
                "x_fit_mode": self.fit_mode or "joint",  # the compare CLI's name for None
                "std_kind": STD_KIND, "rows": rows}

    def to_text(self) -> str:
        """Aligned table with an Avg ± Std column; the best cell in each
        level column is starred."""
        return _starred_table("Law", 12, [*self.levels, "Avg ± Std"], [
            (law_id, [r2 for r2, _ in cells],
             ["n/a" if avg is None else f"{_score_text(avg, 4)} ± {_score_text(std, 2)}"])
            for law_id, cells, avg, std in self.rows])


def compare_laws(
    data: ObservationSet,
    laws: Sequence[LawSpec],
    config: FitConfig = FitConfig(),
    group_by_level: bool = False,
    fit_mode: str | None = None,
) -> ComparisonTable:
    """In-sample R-squared of each law at each level of `data` (with
    `group_by_level`, where every row needs a level) or on the whole set
    as one level, "all". Each law's fits are planned by `fit_levels`
    with `fit_mode`; fit and scoring failures are recorded per cell.

    Every fit is planned before any runs, and the fits of all laws are
    independent, so they run spread over the usable CPUs (`_run_fits`).
    The table does not depend on how many there are.
    """
    groups = _level_groups(data, group_by_level)
    plans = [fit_levels(law, data, config, fit_mode, groups) for law in laws]
    results = iter(_run_fits([job for _, jobs in plans for job in jobs]))
    rows = []
    for (mode, jobs), law in zip(plans, laws):
        fits = [next(results) for _ in jobs]
        if mode == "joint_x":
            fits *= len(groups)
        cells = tuple(
            _score(lambda: EvalPairs.of(_predict(jobs[0][0], result, group), group.losses()))
            for (_, group), result in zip(groups, fits))
        scores = [(level, r2) for (level, _), (r2, _) in zip(groups, cells) if r2 is not None]
        rows.append((law.law_id, cells, *_summary(scores)))
    return ComparisonTable(tuple(str(level) for level, _ in groups), bool(group_by_level),
                           fit_mode, tuple(rows))


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


def _split(oset: ObservationSet, spec: SplitSpec) -> tuple:
    """(spec, train, test, excluded count, train groups, test groups)."""
    train, test = make_split(oset, spec)
    by_level = not oset.missing_levels().all()
    test_groups = _level_groups(test, by_level)
    return (spec, train, test, len(oset) - len(train) - len(test),
            _level_groups(train, by_level), test_groups)


def _extrapolate(law: LawSpec, split: tuple, config: FitConfig, fit_mode: str | None):
    spec, train, test, excluded, train_groups, test_groups = split
    fit_mode, jobs = fit_levels(law, train, config, fit_mode, train_groups,
                                predicts=[level for level, _ in test_groups])
    fits = tuple(fit(*job) for job in jobs)
    # under per_level fit_levels checked that every test level has a
    # training group; under joint_x the one fit predicts every level
    fit_of = dict(zip([level for level, _ in train_groups], fits))
    law = jobs[0][0]
    pairs = [EvalPairs.of(predict_dataset(law, fit_of.get(level, fits[0]).params, group),
                          group.losses())
             for level, group in test_groups]
    return ExtrapReport(
        law_id=law.law_id,
        split=spec,
        fit_mode=fit_mode,
        per_level_fit=fits,
        pooled_r2=pooled_r_squared(pairs),
        per_level_r2=tuple((level, _score(lambda: p)[0])
                           for (level, _), p in zip(test_groups, pairs)),
        train_count=len(train),
        test_count=len(test),
        excluded_count=excluded,
    )


def run_extrapolation(
    oset: ObservationSet,
    law: LawSpec,
    spec: SplitSpec,
    config: FitConfig = FitConfig(),
    fit_mode: str | None = None,
) -> ExtrapReport:
    """Fit on the training side of a split and score held-out predictions.

    Args:
        oset: Full observation set.
        law: Law to fit (config.x_orientation may override orientation).
        spec: Split specification.
        config: Fit configuration, shared by all (per-level) fits.
        fit_mode: As for `fit_levels`: "per_level", "joint_x", or None
            for the law's default.

    Returns:
        ExtrapReport with pooled and per-level scores. A failed fit, and
        prediction failures on any test observation, propagate, failing
        the run.
    """
    return _extrapolate(law, _split(oset, spec), config, fit_mode)


@dataclass(frozen=True)
class SweepCell:
    pooled_r2: float | None
    error: str | None = None

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class SweepTable:
    """Laws x splits table of pooled R-squared scores."""

    law_ids: tuple[str, ...]
    specs: tuple[SplitSpec, ...]
    fit_modes: tuple[str, ...]
    cells: tuple[tuple[SweepCell, ...], ...]

    def all_failed(self) -> bool:
        return all(cell.pooled_r2 is None for row in self.cells for cell in row)

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

    def to_text(self) -> str:
        """Aligned table; the best cell in each column is starred."""
        return _starred_table("Method", 10, [s.label() for s in self.specs], [
            (law_id, [cell.pooled_r2 for cell in row], [])
            for law_id, row in zip(self.law_ids, self.cells)
        ])


def progressive_sweep(
    oset: ObservationSet,
    laws: Sequence[LawSpec],
    specs: Sequence[SplitSpec],
    config: FitConfig = FitConfig(),
    fit_mode: str | None = None,
) -> SweepTable:
    """Full cross-product of laws and splits; per-cell failures recorded.

    Each spec is split, and both sides grouped by level, once before any
    fit; every law reuses the split. Cell order is deterministic: laws
    in the given order (rows), specs in the given order (columns).

    Raises:
        SplitError: a spec is unsatisfiable (the first such in order).
        DataValidationError: only some rows of `oset` have a level.
    """
    splits = [_split(oset, spec) for spec in specs]
    rows = []
    for law in laws:
        row = []
        for split in splits:
            try:
                report = _extrapolate(law, split, config, fit_mode)
                row.append(SweepCell(pooled_r2=report.pooled_r2))
            except ScaleLawsError as exc:
                row.append(SweepCell(pooled_r2=None, error=str(exc)))
        rows.append(tuple(row))
    return SweepTable(tuple(law.law_id for law in laws), tuple(specs),
                      tuple(_default_fit_mode(law, fit_mode) for law in laws), tuple(rows))
