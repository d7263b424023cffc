"""The validated finite-difference Jacobian the analytic gradients are
tested against, and exact counts of the work a fit does."""

from __future__ import annotations

import contextlib

import numpy as np

import scalelaws as sl
from scalelaws import fitter
from scalelaws.laws import evaluate_raw, jacobian_fd_arrays, observed_x

MAX_JACOBIAN_STEP = 1e-2
DEFAULT_JACOBIAN_STEP = 1e-6


def jacobian_fd(
    law: sl.LawSpec,
    params: sl.ParamVector,
    observations: sl.ObservationSet,
    step_rel: float = DEFAULT_JACOBIAN_STEP,
) -> np.ndarray:
    """Central finite differences of the predicted loss, one column per
    parameter, taken in each parameter's unconstrained log coordinate
    u = ln(theta).

    Args:
        law: Law to differentiate (its orientation is honored).
        params: Point of differentiation, matching `law`.
        observations: Evaluation points (normalized internally).
        step_rel: Log-coordinate step, in (0, 1e-2].

    Returns:
        Matrix of shape [n_obs, n_params] with finite entries.

    Raises:
        DataValidationError: an X-aware law and an observation without
            x_level.
        LawDomainError: invalid step, or a non-evaluable observation.
    """
    if not (0 < step_rel <= MAX_JACOBIAN_STEP):
        raise sl.LawDomainError(f"step_rel must be in (0, {MAX_JACOBIAN_STEP}], got {step_rel}")
    n = observations.n_norm()
    d = observations.d_norm()
    x = observed_x(law, observations)
    base = evaluate_raw(law, params.values, n, d, x)
    if np.any(~np.isfinite(base)):
        raise sl.LawDomainError(f"{law.law_id}: non-evaluable observation at the given parameters")
    jac = jacobian_fd_arrays(law, np.asarray(params.values), n, d, x, step_rel)
    if np.any(~np.isfinite(jac)):
        raise sl.LawDomainError(f"{law.law_id}: non-finite Jacobian entry at the given parameters")
    return jac


@contextlib.contextmanager
def counting_fitter_work():
    """Count the fitter's work while the block runs.

    Yields a dict of exact counts, updated as the block runs:
    "residuals" (calls of the objective, one law evaluation each),
    "jacobians" (calls of the Jacobian thunks it returns), "solves"
    (damped systems solved, fitter._step calls) and "fallbacks" (lstsq
    calls: the systems np.linalg.solve found singular).
    """
    counts = dict.fromkeys(("residuals", "jacobians", "solves", "fallbacks"), 0)
    call, step, lstsq = fitter._Objective.__call__, fitter._step, np.linalg.lstsq

    def counted_call(self, u):
        counts["residuals"] += 1
        residuals, jacobian = call(self, u)

        def counted_jacobian():
            counts["jacobians"] += 1
            return jacobian()

        return residuals, counted_jacobian

    def counted_step(damped, neg_grad):
        counts["solves"] += 1
        return step(damped, neg_grad)

    def counted_lstsq(*args, **kwargs):
        counts["fallbacks"] += 1
        return lstsq(*args, **kwargs)

    fitter._Objective.__call__, fitter._step = counted_call, counted_step
    np.linalg.lstsq = counted_lstsq
    try:
        yield counts
    finally:
        fitter._Objective.__call__, fitter._step, np.linalg.lstsq = call, step, lstsq
