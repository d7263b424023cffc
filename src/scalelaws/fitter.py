"""Constrained nonlinear least squares with deterministic multistart.

Parameters are optimized in unconstrained log coordinates u = ln(theta),
which makes positivity structural. Each start runs a damped
Gauss-Newton (Levenberg-Marquardt) iteration with the law's analytic
Jacobian in those coordinates (``LawSpec.gradient``); accepted steps
never increase the sum of squared residuals, damping grows on rejected
steps and shrinks on accepted ones. The start with the lowest final SSE
wins, ties resolving to the lowest start index, so results are
reproducible from (data, config, seed) alone.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .dataset import Normalization, ObservationSet
from .errors import DataValidationError, FitError, UndefinedVarianceError
from .laws import (
    LawSpec,
    ParamVector,
    apply_orientation,
    evaluate_raw,
    evaluate_with_jacobian,
    log_inputs,
    predict_dataset,
)
from .metrics import EvalPairs, r_squared

OBJECTIVE_SPACES = ("loss", "log_loss")

_LAMBDA_INIT = 1e-3
_LAMBDA_UP = 4.0
_LAMBDA_DOWN = 0.25
_LAMBDA_MIN = 1e-14
_LAMBDA_MAX = 1e15
_TINY = 1e-300

# Log-coordinate box: exp stays a positive normal double, so parameters
# can shrink to ~1e-299 (effectively zero) without ever reaching 0.
_LOG_BOUND = 690.0

RANDOM_START_LOW = 1e-3
RANDOM_START_HIGH = 1e2


@dataclass(frozen=True)
class FitConfig:
    """Multistart and convergence settings.

    Attributes:
        starts: Number of primary starts. Filled first by coordinate-wise
            combinations of `init_values` in lexicographic order, then by
            log-uniform random starts if the combinations run out.
        init_values: Values combined coordinate-wise for the
            deterministic starts (identical across seeds).
        random_starts: Additional log-uniform starts in
            [RANDOM_START_LOW, RANDOM_START_HIGH].
        seed: Seeds the random starts only.
        max_iters: Iteration cap per start.
        tol_rel_sse: Convergence on relative SSE improvement.
        tol_grad: Convergence on the max-norm of the gradient J^T r.
        objective_space: "loss" fits raw losses; "log_loss" fits their
            natural logs (useful when losses span orders of magnitude).
        x_orientation: Override of the law's X orientation for this fit.
    """

    starts: int = 16
    init_values: tuple[float, ...] = (1.0, 0.1)
    random_starts: int = 0
    seed: int = 0
    max_iters: int = 10000
    tol_rel_sse: float = 1e-12
    tol_grad: float = 1e-10
    objective_space: str = "loss"
    x_orientation: str | None = None

    def __post_init__(self) -> None:
        if self.starts < 1:
            raise DataValidationError(f"starts must be >= 1, got {self.starts}")
        if len(self.init_values) == 0 or any(
            not (math.isfinite(v) and v > 0) for v in self.init_values
        ):
            raise DataValidationError("init_values must be positive finite reals")
        if self.random_starts < 0:
            raise DataValidationError(f"random_starts must be >= 0, got {self.random_starts}")
        if self.seed < 0:
            raise DataValidationError(f"seed must be an unsigned integer, got {self.seed}")
        if self.max_iters < 1:
            raise DataValidationError(f"max_iters must be >= 1, got {self.max_iters}")
        if not self.tol_rel_sse > 0 or not self.tol_grad > 0:
            raise DataValidationError("tolerances must be positive")
        if self.objective_space not in OBJECTIVE_SPACES:
            raise DataValidationError(
                f"objective_space must be one of {OBJECTIVE_SPACES}, got "
                f"{self.objective_space!r}"
            )
        if self.x_orientation not in (None, "mitigating", "amplifying"):
            raise DataValidationError(f"bad x_orientation {self.x_orientation!r}")


@dataclass(frozen=True)
class FitResult:
    """A converged (or best-effort) fit with full provenance.

    `r2_train` is computed on raw losses regardless of the objective
    space; it is None when the training losses have zero variance.
    """

    law_id: str
    params: ParamVector
    normalization: Normalization
    sse: float
    r2_train: float | None
    n_obs: int
    converged: bool
    iterations_used: int
    start_index_won: int
    seed: int
    objective_space: str
    x_orientation: str | None = None

    def to_dict(self) -> dict:
        return {
            "law_id": self.law_id,
            "params": self.params.as_dict(),
            "normalization": self.normalization.to_dict(),
            "sse": self.sse,
            "r2_train": self.r2_train,
            "n_obs": self.n_obs,
            "converged": self.converged,
            "iterations_used": self.iterations_used,
            "start_index_won": self.start_index_won,
            "seed": self.seed,
            "objective_space": self.objective_space,
            "x_orientation": self.x_orientation,
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


def fit_result_from_dict(payload: dict) -> FitResult:
    """Rebuild a FitResult from its to_dict()/JSON form."""
    return FitResult(
        law_id=payload["law_id"],
        params=ParamVector.from_dict(payload["law_id"], payload["params"]),
        normalization=Normalization(**payload["normalization"]),
        sse=float(payload["sse"]),
        r2_train=None if payload["r2_train"] is None else float(payload["r2_train"]),
        n_obs=int(payload["n_obs"]),
        converged=bool(payload["converged"]),
        iterations_used=int(payload["iterations_used"]),
        start_index_won=int(payload["start_index_won"]),
        seed=int(payload["seed"]),
        objective_space=payload["objective_space"],
        x_orientation=payload.get("x_orientation"),
    )


class _Objective:
    """Precomputed arrays and residual/Jacobian maps for one fit.

    The maps leave floating-point errors to the caller's np.errstate
    (_lm_minimize ignores them and tests finiteness instead).

    Raises:
        DataValidationError: an X-aware law without x_level on every
            observation.
        LawDomainError: X outside the law's domain (e.g. x <= 0 for qid).
    """

    def __init__(self, law: LawSpec, data: ObservationSet, objective_space: str):
        self.law = law
        self.n = data.n_norm()
        self.d = data.d_norm()
        self.x = None
        if law.needs_x:
            x = data.x_values()
            if np.any(np.isnan(x)):
                raise DataValidationError(
                    f"law {law.law_id} requires x_level on every observation"
                )
            self.x = law.check_x(x)
        self.logs = log_inputs(law, self.n, self.d, self.x)
        self.y = data.losses()
        self.log_space = objective_space == "log_loss"
        self.target = np.log(self.y) if self.log_space else self.y

    def residual(self, u: np.ndarray) -> np.ndarray:
        pred = evaluate_raw(self.law, np.exp(u), self.n, self.d, self.x)
        if self.log_space:
            return np.log(pred) - self.target
        return pred - self.target

    def jacobian(self, u: np.ndarray) -> np.ndarray:
        pred, jac = evaluate_with_jacobian(
            self.law, np.exp(u), self.n, self.d, self.x, self.logs
        )
        if self.log_space:
            return jac / pred[:, None]
        return jac


def _sse_of(residual: np.ndarray) -> float:
    """Sum of squared residuals; +inf on overflow (under the caller's
    np.errstate)."""
    sse = float(residual @ residual)
    return sse if math.isfinite(sse) else math.inf


def _lm_minimize(
    residual_fn: Callable[[np.ndarray], np.ndarray],
    jacobian_fn: Callable[[np.ndarray], np.ndarray],
    u0: np.ndarray,
    max_iters: int,
    tol_rel_sse: float,
    tol_grad: float,
) -> tuple[np.ndarray, float, int, bool]:
    """Damped Gauss-Newton on residual_fn, starting at u0.

    Steps whose residuals come back non-finite are rejected (treated as
    SSE = +inf), so the iteration can sit next to overflow regions
    without aborting.

    Returns:
        (u, sse, iterations, converged)

    Raises:
        FitError: residuals are non-finite at the start point.
    """
    u = np.clip(np.array(u0, dtype=float), -_LOG_BOUND, _LOG_BOUND)
    with np.errstate(all="ignore"):
        r = residual_fn(u)
        if not np.isfinite(r).all():
            raise FitError("non-finite residuals at the start point")
        sse = _sse_of(r)
        if not math.isfinite(sse):
            raise FitError("SSE overflow at the start point")
        lam = _LAMBDA_INIT
        iterations = 0
        converged = False
        diagonal = np.arange(u.size)
        while iterations < max_iters:
            jac = jacobian_fn(u)
            if not np.isfinite(jac).all():
                break
            grad = jac.T @ r
            jtj = jac.T @ jac
            if not (np.isfinite(grad).all() and np.isfinite(jtj).all()):
                break
            if float(np.abs(grad).max()) <= tol_grad:
                converged = True
                break
            diag = jtj.diagonal()
            diag = np.maximum(diag, max(float(diag.max()), 1.0) * 1e-14)
            accepted = False
            while True:
                damped = jtj.copy()
                damped[diagonal, diagonal] += lam * diag
                try:
                    step = np.linalg.solve(damped, -grad)
                except np.linalg.LinAlgError:
                    step = np.linalg.lstsq(damped, -grad, rcond=None)[0]
                if np.isfinite(step).all():
                    u_try = np.clip(u + step, -_LOG_BOUND, _LOG_BOUND)
                    r_try = residual_fn(u_try)
                    sse_try = _sse_of(r_try) if np.isfinite(r_try).all() else math.inf
                else:
                    sse_try = math.inf
                if sse_try <= sse:
                    improvement = sse - sse_try
                    u, r, sse = u_try, r_try, sse_try
                    lam = max(lam * _LAMBDA_DOWN, _LAMBDA_MIN)
                    accepted = True
                    if improvement <= tol_rel_sse * max(sse_try, _TINY):
                        converged = True
                    break
                lam *= _LAMBDA_UP
                if lam > _LAMBDA_MAX:
                    break
            iterations += 1
            if converged or not accepted:
                break
    return u, sse, iterations, converged


def enumerate_starts(config: FitConfig, n_params: int) -> list[np.ndarray]:
    """Start points in log coordinates, deterministic given the config.

    The first `starts` points are coordinate-wise combinations of
    `init_values` in lexicographic order; if fewer combinations exist,
    log-uniform random points fill the remainder. `random_starts` more
    random points follow. Only the random points depend on the seed.
    """
    combos = itertools.islice(
        itertools.product(config.init_values, repeat=n_params), config.starts
    )
    starts = [np.log(np.asarray(c, dtype=float)) for c in combos]
    n_random = (config.starts - len(starts)) + config.random_starts
    if n_random > 0:
        rng = np.random.default_rng(config.seed)
        lo = math.log10(RANDOM_START_LOW)
        hi = math.log10(RANDOM_START_HIGH)
        for _ in range(n_random):
            theta = 10.0 ** rng.uniform(lo, hi, size=n_params)
            starts.append(np.log(theta))
    return starts


def local_solve(
    law: LawSpec,
    data: ObservationSet,
    start: Sequence[float],
    config: FitConfig = FitConfig(),
) -> tuple[ParamVector, float, int, bool]:
    """Single damped Gauss-Newton run from one start point.

    Args:
        law: Law to fit.
        data: Observations.
        start: Start point in log coordinates (ln of the parameters).
        config: Convergence settings (multistart fields are ignored).

    Returns:
        (params, sse, iterations, converged), params in raw coordinates.

    Raises:
        FitError: non-finite start or non-finite residuals at the start.
    """
    law = apply_orientation(law, config.x_orientation)
    u0 = np.asarray(start, dtype=float)
    if u0.shape != (law.n_params,) or not np.all(np.isfinite(u0)):
        raise FitError(
            f"start must be {law.n_params} finite log-coordinates for {law.law_id}"
        )
    obj = _Objective(law, data, config.objective_space)
    u, sse, iterations, converged = _lm_minimize(
        obj.residual, obj.jacobian, u0, config.max_iters, config.tol_rel_sse, config.tol_grad
    )
    params = ParamVector(law.law_id, tuple(float(v) for v in np.exp(u)))
    return params, sse, iterations, converged


def residuals(
    law: LawSpec,
    params: ParamVector,
    data: ObservationSet,
    objective_space: str = "loss",
) -> np.ndarray:
    """Predicted minus observed, per observation, in data order.

    In "log_loss" space both sides are logged first. Domain errors on
    any observation propagate as LawDomainError.
    """
    if objective_space not in OBJECTIVE_SPACES:
        raise DataValidationError(
            f"objective_space must be one of {OBJECTIVE_SPACES}, got {objective_space!r}"
        )
    pred = predict_dataset(law, params, data)
    obs = data.losses()
    if objective_space == "log_loss":
        return np.log(pred) - np.log(obs)
    return pred - obs


def fit(law: LawSpec, data: ObservationSet, config: FitConfig = FitConfig()) -> FitResult:
    """Multistart least-squares fit of `law` to `data`.

    Runs every configured start, keeps the lowest final SSE (ties to the
    lowest start index). A start whose residuals are non-finite at its
    start point simply loses; if every start does, the fit fails.

    Raises:
        DataValidationError: empty data, missing x_level for an X law.
        FitError: fewer observations than parameters, or all starts
            diverged.
    """
    law = apply_orientation(law, config.x_orientation)
    if len(data) == 0:
        raise DataValidationError("cannot fit an empty observation set")
    if len(data) < law.n_params:
        raise FitError(
            f"{law.law_id} has {law.n_params} parameters but only "
            f"{len(data)} observations are available"
        )
    obj = _Objective(law, data, config.objective_space)

    best: tuple[int, np.ndarray, float, int, bool] | None = None
    for index, u0 in enumerate(enumerate_starts(config, law.n_params)):
        try:
            u, sse, iterations, converged = _lm_minimize(
                obj.residual,
                obj.jacobian,
                u0,
                config.max_iters,
                config.tol_rel_sse,
                config.tol_grad,
            )
        except FitError:
            continue
        if not math.isfinite(sse):
            continue
        if best is None or sse < best[2]:
            best = (index, u, sse, iterations, converged)
    if best is None:
        raise FitError(f"{law.law_id}: every start diverged (non-finite SSE)")

    index, u, sse, iterations, converged = best
    params = ParamVector(law.law_id, tuple(float(v) for v in np.exp(u)))
    predictions = predict_dataset(law, params, data)
    try:
        r2_train = r_squared(EvalPairs.of(predictions, data.losses()))
    except (UndefinedVarianceError, DataValidationError):
        r2_train = None
    return FitResult(
        law_id=law.law_id,
        params=params,
        normalization=data.normalization,
        sse=sse,
        r2_train=r2_train,
        n_obs=len(data),
        converged=converged,
        iterations_used=iterations,
        start_index_won=index,
        seed=config.seed,
        objective_space=config.objective_space,
        x_orientation=law.x_orientation if law.needs_x else None,
    )
