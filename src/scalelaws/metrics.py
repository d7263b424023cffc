"""Goodness-of-fit statistics: R-squared, pooled R-squared, level summaries.

Sums of squares are accumulated with `math.fsum` (correctly rounded), so
results are independent of accumulation order and reproduce a
definitional re-implementation bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DataValidationError, ScoreOverflowError, UndefinedVarianceError

#: How the "avg ± std" summaries are computed; recorded in report metadata.
STD_KIND = "population"


@dataclass(frozen=True, eq=False)
class EvalPairs:
    """Aligned (predicted, observed) float64 arrays, optionally labeled."""

    predicted: np.ndarray
    observed: np.ndarray
    group_label: str | None = None

    def __post_init__(self) -> None:
        for name in ("predicted", "observed"):
            object.__setattr__(self, name, np.array(getattr(self, name), dtype=float).ravel())
        if len(self.predicted) != len(self.observed):
            raise DataValidationError(
                f"predicted and observed lengths differ: "
                f"{len(self.predicted)} vs {len(self.observed)}"
            )
        if len(self.predicted) < 1:
            raise DataValidationError("EvalPairs requires at least one pair")
        for name, values in (("predicted", self.predicted), ("observed", self.observed)):
            if not np.isfinite(values).all():
                raise DataValidationError(f"{name} contains a non-finite value")

    @classmethod
    def of(cls, predicted, observed, group_label: str | None = None) -> "EvalPairs":
        return cls(predicted, observed, group_label)

    def __len__(self) -> int:
        return len(self.predicted)


def r_squared(pairs: EvalPairs) -> float:
    """Coefficient of determination, 1 - SS_res/SS_tot.

    SS_tot is taken about the mean of the observed values. The result
    may be negative (a fit worse than the mean predictor).

    Raises:
        DataValidationError: fewer than two pairs.
        UndefinedVarianceError: all observed values identical (SS_tot = 0).
        ScoreOverflowError: a sum, a square or SS_res/SS_tot leaves the
            float range.
    """
    if len(pairs) < 2:
        raise DataValidationError("r_squared requires at least two pairs")
    obs = pairs.observed.tolist()  # Python floats: the same squares as a scalar loop
    pred = pairs.predicted.tolist()
    mean_obs = _finite_fsum(obs, "the sum of observed values") / len(obs)
    ss_tot = _finite_fsum(((o - mean_obs) ** 2 for o in obs), "the total sum of squares")
    if ss_tot == 0.0:
        raise UndefinedVarianceError(
            "all observed values are identical; R-squared is undefined"
        )
    ss_res = _finite_fsum(((p - o) ** 2 for p, o in zip(pred, obs)),
                          "the residual sum of squares")
    ratio = ss_res / ss_tot
    if ratio == math.inf:
        raise ScoreOverflowError(
            "the residual to total sum-of-squares ratio overflows the float range; "
            "R-squared is undefined"
        )
    return 1.0 - ratio


def _finite_fsum(terms: Iterable[float], what: str) -> float:
    """`math.fsum` of Python floats; a term or total that leaves the
    float range (`**` and `fsum` raise OverflowError, `-` gives inf)
    raises ScoreOverflowError naming `what`."""
    try:
        total = math.fsum(terms)
    except OverflowError:
        total = math.inf
    if total == math.inf:
        raise ScoreOverflowError(f"{what} overflows the float range; R-squared is undefined")
    return total


def pooled_r_squared(groups: Sequence[EvalPairs]) -> float:
    """R-squared of the single concatenation of all groups.

    One global mean is used, which is strictly stricter than averaging
    per-group scores: systematic offsets between groups count against
    the fit.

    Raises:
        DataValidationError: no groups, or concatenated length < 2.
        UndefinedVarianceError: concatenated observations all identical.
    """
    if len(groups) == 0:
        raise DataValidationError("pooled_r_squared requires at least one group")
    return r_squared(EvalPairs(
        np.concatenate([g.predicted for g in groups]),
        np.concatenate([g.observed for g in groups]),
    ))


def summarize_levels(scores: Sequence[tuple[object, float]]) -> tuple[float, float]:
    """Arithmetic mean and population standard deviation of per-level scores.

    Args:
        scores: Nonempty (level, score) pairs; levels are carried only
            for caller bookkeeping.

    Returns:
        (mean, std) over exactly the provided scores.

    Raises:
        DataValidationError: no scores.
        ScoreOverflowError: the scores' sum or variance leaves the float
            range.
    """
    if len(scores) == 0:
        raise DataValidationError("summarize_levels requires at least one score")
    values = [float(s) for _, s in scores]
    try:  # fsum and ** raise OverflowError; a difference overflows to inf
        mean = math.fsum(values) / len(values)
        variance = math.fsum((v - mean) ** 2 for v in values) / len(values)
    except OverflowError:
        variance = math.inf
    if variance == math.inf:
        raise ScoreOverflowError(
            "the mean or variance of the level scores overflows the float range"
        )
    return mean, math.sqrt(variance)
