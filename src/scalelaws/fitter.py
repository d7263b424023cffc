"""Constrained nonlinear least squares with deterministic multistart.

Parameters are optimized in unconstrained log coordinates u = ln(theta),
which makes positivity structural. Each start runs a damped
Gauss-Newton (Levenberg-Marquardt) iteration with the law's analytic
Jacobian in those coordinates, under one np.errstate. One
``laws.evaluate`` call per point gives its residuals and a closure that
builds its Jacobian once the point is accepted, so no point is
evaluated twice. Each damped system goes straight to the LAPACK kernel
that np.linalg.solve wraps; only a non-finite step replays the checked
np.linalg.solve, then lstsq, so every step is theirs. Accepted steps never
increase the sum of squared residuals, damping grows on rejected steps
and shrinks on accepted ones. A start converges when its SSE or its
gradient stops changing, and also stops, unconverged, when it stalls
(its SSE fell by at most 1e-5 of itself over its last 30 iterations) or
reaches the iteration cap. The start with the lowest final SSE wins,
ties resolving to the lowest start index, so results are reproducible
from (data, config, seed) alone.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.linalg import _umath_linalg

from .dataset import Normalization, ObservationSet
from .errors import DataValidationError, FitError, ScoreOverflowError, UndefinedVarianceError
from .laws import (
    LAW_IDS,
    LawSpec,
    ParamVector,
    apply_orientation,
    evaluate,
    get_law,
    log_inputs,
    observed_x,
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
_STALL_WINDOW = 30
_STALL_TOL = 1e-5
_TOL_REL_SSE = 1e-12
_TOL_GRAD = 1e-10
_INIT_VALUES = (1.0, 0.1)

# Log-coordinate box: exp stays a positive normal double, so parameters
# can shrink to ~1e-299 (effectively zero) without ever reaching 0.
_LOG_BOUND = 690.0

RANDOM_START_LOW = 1e-3
RANDOM_START_HIGH = 1e2


@dataclass(frozen=True)
class FitConfig:
    """Multistart and iteration settings (the tolerances are fixed).

    Attributes:
        starts: Number of primary starts. Filled first by coordinate-wise
            combinations of 1.0 and 0.1 in lexicographic order (identical
            across seeds), then by log-uniform random starts if the
            combinations run out.
        random_starts: Additional log-uniform starts in
            [RANDOM_START_LOW, RANDOM_START_HIGH].
        seed: Seeds the random starts only.
        max_iters: Iteration cap per start. A start also stops when it
            stalls (see _lm_minimize); a capped or stalled start is not
            converged.
        objective_space: "loss" fits raw losses; "log_loss" fits their
            natural logs (useful when losses span orders of magnitude).
        x_orientation: Override of the law's X orientation for this fit.

    starts, random_starts, seed and max_iters take a Python or numpy
    integer, stored as int; a bool, a float or any other type raises
    DataValidationError.
    """

    starts: int = 16
    random_starts: int = 0
    seed: int = 0
    max_iters: int = 10000
    objective_space: str = "loss"
    x_orientation: str | None = None

    def __post_init__(self) -> None:
        for name in ("starts", "random_starts", "seed", "max_iters"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise DataValidationError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.starts < 1:
            raise DataValidationError(f"starts must be >= 1, got {self.starts}")
        if self.random_starts < 0:
            raise DataValidationError(f"random_starts must be >= 0, got {self.random_starts}")
        if self.seed < 0:
            raise DataValidationError(f"seed must be an unsigned integer, got {self.seed}")
        if self.max_iters < 1:
            raise DataValidationError(f"max_iters must be >= 1, got {self.max_iters}")
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
    space; it is None when the training losses have zero variance or
    its sums of squares overflow.
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


def _finite(value) -> bool:  # type(True) is bool; the comparison is exact for any int
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


_POSITIVE = (lambda v: _finite(v) and v > 0, "a positive finite number")

#: Each key FitResult.to_dict writes: a test its value passes, and what passes it.
_FIT_KEYS = {
    "law_id": (LAW_IDS.__contains__, f"one of {', '.join(LAW_IDS)}"),
    **dict.fromkeys(("params", "normalization"), (lambda v: type(v) is dict, "a JSON object")),
    "sse": (_finite, "a finite number"),
    "r2_train": (lambda v: v is None or _finite(v), "a finite number or null"),
    **dict.fromkeys(("n_obs", "iterations_used", "start_index_won", "seed"),
                    (lambda v: type(v) is int, "an integer")),
    "converged": (lambda v: type(v) is bool, "a boolean"),
    "objective_space": (OBJECTIVE_SPACES.__contains__, f"one of {', '.join(OBJECTIVE_SPACES)}"),
    "x_orientation": ((None, "mitigating", "amplifying").__contains__,
                      "null, 'mitigating' or 'amplifying'"),
}


def _shown(value) -> str:
    """The repr of a JSON value, or its type and size if the repr is long,
    so that an error line stays short whatever the file holds."""
    text = repr(value)
    if len(text) <= 40:
        return text
    kind, unit = {dict: ("object", "key"), list: ("array", "item"),
                  str: ("string", "character")}.get(type(value), ("number", "character"))
    return f"a {len(text) if kind == 'number' else len(value)}-{unit} JSON {kind}"


def _checked(value, keys: dict, where: str = "") -> dict:
    """`value` if it is a JSON object with exactly `keys`, each value passing its test."""
    if type(value) is not dict:
        raise DataValidationError(f"expected a JSON object, got {_shown(value)}")
    odd = [k for k in keys if k not in value] + [k for k in value if k not in keys]
    if odd:
        raise DataValidationError(
            f"{'missing' if odd[0] in keys else 'unexpected'} key {where}{odd[0]}")
    for key, (test, what) in keys.items():
        if not test(value[key]):
            raise DataValidationError(f"{where}{key} must be {what}, got {_shown(value[key])}")
    return value


def fit_result_from_dict(record: dict) -> FitResult:
    """Rebuild a FitResult from its to_dict() form, checking every key (see
    _FIT_KEYS; only an X-aware law has an x_orientation). Raises
    DataValidationError naming the first key that fails."""
    fields = dict(_checked(record, _FIT_KEYS))
    law = get_law(fields["law_id"])
    if fields["x_orientation"] is not None and not law.needs_x:
        raise DataValidationError(f"x_orientation must be null for {law.law_id}, which takes no X")
    fields["params"] = ParamVector.from_dict(law.law_id, _checked(
        fields["params"], dict.fromkeys(law.param_names, _POSITIVE), "params."))
    fields["normalization"] = Normalization(**_checked(
        fields["normalization"], dict.fromkeys(("n_scale", "d_scale"), _POSITIVE),
        "normalization."))
    return FitResult(**fields)


def read_fit(path: str) -> FitResult:
    """Read a fit JSON: a to_dict() record in UTF-8 JSON text, bare or under
    "fit". Raises DataValidationError naming the file when the text or the
    record is malformed, and OSError when the file cannot be read."""
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except ValueError as exc:  # a JSONDecodeError or UnicodeDecodeError
        raise DataValidationError(f"{path}: not UTF-8 JSON ({exc})") from None
    except RecursionError:
        raise DataValidationError(f"{path}: JSON nested too deeply") from None
    try:
        return fit_result_from_dict(payload.get("fit", payload) if type(payload) is dict
                                    else payload)
    except DataValidationError as exc:
        raise DataValidationError(f"{path}: {exc}") from None


class _Objective:
    """Precomputed arrays for fitting `law`, oriented as `config` says, to
    `data`; called on u, it returns the residuals and a thunk giving their
    Jacobian. Both may be non-finite (_lm_minimize tests finiteness).

    Raises:
        DataValidationError: empty data, or an X-aware law without
            x_level on every observation.
        FitError: fewer observations than parameters.
        LawDomainError: X outside the law's domain (e.g. x <= 0 for qid).
    """

    def __init__(self, law: LawSpec, data: ObservationSet, config: FitConfig):
        law = apply_orientation(law, config.x_orientation)
        if len(data) == 0:
            raise DataValidationError("cannot fit an empty observation set")
        if len(data) < law.n_params:
            raise FitError(
                f"{law.law_id} has {law.n_params} parameters but only "
                f"{len(data)} observations are available"
            )
        self.law = law
        self.n = data.n_norm()
        self.d = data.d_norm()
        self.x = law.check_x(observed_x(law, data))
        self.logs = log_inputs(law, self.n, self.d, self.x)
        self.y = data.losses()
        self.log_space = config.objective_space == "log_loss"
        self.target = np.log(self.y) if self.log_space else self.y

    def __call__(self, u: np.ndarray) -> tuple[np.ndarray, Callable[[], np.ndarray]]:
        pred, derivative = evaluate(self.law, np.exp(u), self.n, self.d, self.x)
        if self.log_space:
            return np.log(pred) - self.target, lambda: derivative(self.logs) / pred[:, None]
        return pred - self.target, lambda: derivative(self.logs)

    def params(self, u: np.ndarray) -> ParamVector:
        return ParamVector(self.law.law_id, tuple(float(v) for v in np.exp(u)))


def _sse_of(residual: np.ndarray) -> float:
    """Sum of squared residuals; +inf on overflow (under the caller's
    np.errstate)."""
    sse = float(residual @ residual)
    return sse if math.isfinite(sse) else math.inf


def _step(damped: np.ndarray, neg_grad: np.ndarray) -> np.ndarray:
    """np.linalg.solve(damped, neg_grad), or lstsq's where solve finds `damped`
    singular, bit for bit. It calls the kernel solve wraps (NaN if singular,
    under the caller's np.errstate) and replays solve unless step @ step is finite."""
    step = _umath_linalg.solve1(damped, neg_grad, signature="dd->d")
    if math.isfinite(step @ step):
        return step
    try:
        return np.linalg.solve(damped, neg_grad)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(damped, neg_grad, rcond=None)[0]


def _lm_minimize(
    objective: Callable[[np.ndarray], tuple[np.ndarray, Callable[[], np.ndarray]]],
    u0: np.ndarray,
    max_iters: int,
) -> tuple[np.ndarray, float, int, bool]:
    """Damped Gauss-Newton on objective, u -> (residuals, Jacobian thunk),
    starting at u0.

    Each point is evaluated once: the thunk of an accepted trial gives
    the Jacobian of the next iteration. Steps whose residuals come back
    non-finite are rejected (treated as SSE = +inf), so the iteration can
    sit next to overflow regions without aborting. _step solves each system
    by the LAPACK kernel; a non-finite step replays solve and its lstsq fallback.

    The start converges when an accepted step improves the SSE by at
    most _TOL_REL_SSE x SSE or the gradient's max-norm is at most
    _TOL_GRAD. It stops unconverged when it stalls (its SSE fell by at
    most _STALL_TOL x SSE over its last _STALL_WINDOW iterations), after
    max_iters iterations, or when no finite step lowers the SSE.

    Returns:
        (u, sse, iterations, converged)

    Raises:
        FitError: residuals are non-finite at the start point.
    """
    u = np.clip(np.array(u0, dtype=float), -_LOG_BOUND, _LOG_BOUND)
    with np.errstate(all="ignore"):
        r, jacobian = objective(u)
        if not np.isfinite(r).all():
            raise FitError("non-finite residuals at the start point")
        sse = _sse_of(r)
        if not math.isfinite(sse):
            raise FitError("SSE overflow at the start point")
        lam = _LAMBDA_INIT
        iterations = 0
        converged = False
        history = [sse]  # the SSE before the first iteration and after each one
        while iterations < max_iters:
            jac = jacobian()
            grad = jac.T @ r
            jtj = jac.T @ jac
            if not (np.isfinite(grad).all() and np.isfinite(jtj).all()):
                break
            if float(np.abs(grad).max()) <= _TOL_GRAD:
                converged = True
                break
            diag = jtj.diagonal()
            diag = np.maximum(diag, max(float(diag.max()), 1.0) * 1e-14)
            neg_grad = -grad
            accepted = False
            while True:
                damped = jtj.copy()
                damped.ravel()[::u.size + 1] += lam * diag
                step = _step(damped, neg_grad)
                if np.isfinite(step).all():
                    u_try = np.minimum(np.maximum(u + step, -_LOG_BOUND), _LOG_BOUND)
                    r_try, jacobian_try = objective(u_try)
                    sse_try = _sse_of(r_try)
                else:
                    sse_try = math.inf
                if sse_try <= sse:
                    improvement = sse - sse_try
                    u, r, sse, jacobian = u_try, r_try, sse_try, jacobian_try
                    lam = max(lam * _LAMBDA_DOWN, _LAMBDA_MIN)
                    accepted = True
                    if improvement <= _TOL_REL_SSE * max(sse_try, _TINY):
                        converged = True
                    break
                lam *= _LAMBDA_UP
                if lam > _LAMBDA_MAX:
                    break
            iterations += 1
            if converged or not accepted:
                break
            history.append(sse)
            if (iterations >= _STALL_WINDOW
                    and history[-1 - _STALL_WINDOW] - sse <= _STALL_TOL * sse):
                break
    return u, sse, iterations, converged


def enumerate_starts(config: FitConfig, n_params: int) -> list[np.ndarray]:
    """Start points in log coordinates, deterministic given the config.

    The first `starts` points are coordinate-wise combinations of 1.0
    and 0.1 in lexicographic order; if fewer combinations exist,
    log-uniform random points fill the remainder. `random_starts` more
    random points follow. Only the random points depend on the seed.
    """
    combos = itertools.islice(
        itertools.product(_INIT_VALUES, repeat=n_params), config.starts
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
        config: Iteration settings (multistart fields are ignored).

    Returns:
        (params, sse, iterations, converged), params in raw coordinates.

    Raises:
        DataValidationError: empty data, missing x_level for an X law.
        FitError: fewer observations than parameters, a start that is
            not n_params finite values, or non-finite residuals at the
            start.
    """
    obj = _Objective(law, data, config)
    law = obj.law
    u0 = np.asarray(start, dtype=float)
    if u0.shape != (law.n_params,) or not np.all(np.isfinite(u0)):
        raise FitError(
            f"start must be {law.n_params} finite log-coordinates for {law.law_id}"
        )
    u, sse, iterations, converged = _lm_minimize(obj, u0, config.max_iters)
    return obj.params(u), sse, iterations, converged


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
    obj = _Objective(law, data, config)
    law = obj.law

    best: tuple[int, np.ndarray, float, int, bool] | None = None
    for index, u0 in enumerate(enumerate_starts(config, law.n_params)):
        try:
            u, sse, iterations, converged = _lm_minimize(obj, u0, config.max_iters)
        except FitError:
            continue
        if best is None or sse < best[2]:
            best = (index, u, sse, iterations, converged)
    if best is None:
        raise FitError(f"{law.law_id}: every start diverged (non-finite SSE)")

    index, u, sse, iterations, converged = best
    params = obj.params(u)
    predictions = predict_dataset(law, params, data)
    try:
        r2_train = r_squared(EvalPairs.of(predictions, data.losses()))
    except (UndefinedVarianceError, ScoreOverflowError, DataValidationError):
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
