"""Registry and evaluation of the supported scaling-law forms.

Every law maps (N, D) — model size and token count, both already
normalized — and optionally a perturbation scalar X, to a positive
predicted test loss. All parameters are positive fitted constants.

Capacity-style laws model an effective information capacity

    C = a * N^alpha * log2(1 + SNR)

with a signal-to-noise ratio built from a signal term growing in D and a
noise denominator combining a D-N interaction term, a data-noise term,
and an irreducible floor; the predicted loss is the reciprocal 1/C:

    shannon_full          SNR = b*D^beta / (c*(D*N)^gamma + d*D^delta + e)
    shannon_simplified    SNR =   D^beta / (c*(D*N)^gamma +   D^delta)
    shannon_extended      SNR numerator additionally scaled by X
    shannon_sizeonly_ablation   interaction term c*N^gamma (no D coupling)

Power-law baselines return the loss directly:

    openai        [(a/N)^(alpha/beta) + b/D]^beta
    chinchilla    a/N^alpha + b/D^beta + c
    qid           chinchilla + d * N^alpha' * D^beta' * X^(-gamma)
    precision     chinchilla + d * (D^beta'/N^alpha') * exp(-X/gamma)
    symmetric     a*N^alpha/D^beta + b*D^beta/N^alpha + c
    asymmetric    a*N^alpha/D^beta + b*D^beta'/N^alpha' + c

The X-aware laws carry an orientation switch. "mitigating" is the form
shown above: a larger X (e.g. quantization bit width, SNR in dB)
shrinks the degradation. "amplifying" flips the X dependence
(X^(+gamma), exp(+gamma*X), or dividing the extended law's SNR
numerator by X) for perturbations like learning rate where larger X
means more damage.

Each law is one row of the law table below: id, parameter names, X
domain, evaluator function and its analytic gradient in the log
coordinates u = ln(theta) the fitter works in. LAW_IDS, SHANNON_FAMILY,
every evaluation path and the fitter's Jacobian read that table;
:func:`jacobian_fd` stays as the finite-difference oracle the gradients
are tested against.

Evaluation is vectorized over numpy arrays. Non-evaluable points raise
:class:`~scalelaws.errors.LawDomainError`; infinities and NaNs never
escape into results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from .dataset import ObservationSet
from .errors import LawDomainError

MITIGATING = "mitigating"
AMPLIFYING = "amplifying"
NO_X = "none"

# X domains besides NO_X: any finite X, or X > 0 only.
X_FINITE = "finite"
X_POSITIVE = "positive"


# ---------------------------------------------------------------------
# Law forms. Each takes the parameter components (see _split_theta), the
# inputs and the X orientation. Capacity-family forms return
# (bandwidth, snr), giving C = bandwidth * log2(1 + snr); baselines
# return the loss.
# ---------------------------------------------------------------------

def _shannon_full(parts, n, d, x, orientation):
    a, b, c, d_coef, e, alpha, beta, gamma, delta = parts
    return a * n ** alpha, b * d ** beta / (c * (d * n) ** gamma + d_coef * d ** delta + e)


def _shannon_simplified(parts, n, d, x, orientation):
    a, c, alpha, beta, gamma, delta = parts
    return a * n ** alpha, d ** beta / (c * (d * n) ** gamma + d ** delta)


def _shannon_extended(parts, n, d, x, orientation):
    a, b, c, d_coef, e, alpha, beta, gamma, delta = parts
    signal = b * d ** beta
    signal = signal * x if orientation == MITIGATING else signal / x
    return a * n ** alpha, signal / (c * (d * n) ** gamma + d_coef * d ** delta + e)


def _shannon_sizeonly_ablation(parts, n, d, x, orientation):
    a, b, c, d_coef, e, alpha, beta, gamma, delta = parts
    return a * n ** alpha, b * d ** beta / (c * n ** gamma + d_coef * d ** delta + e)


def _loss_openai(parts, n, d, x, orientation):
    a, b, alpha, beta = parts
    return ((a / n) ** (alpha / beta) + b / d) ** beta


def _loss_chinchilla(parts, n, d, x, orientation):
    a, b, c, alpha, beta = parts
    return a / n ** alpha + b / d ** beta + c


def _loss_qid(parts, n, d, x, orientation):
    a, b, c, d_coef, alpha, beta, alpha_p, beta_p, gamma = parts
    base = a / n ** alpha + b / d ** beta + c
    x_power = x ** (-gamma) if orientation == MITIGATING else x ** gamma
    return base + d_coef * n ** alpha_p * d ** beta_p * x_power


def _loss_precision(parts, n, d, x, orientation):
    a, b, c, d_coef, alpha, beta, alpha_p, beta_p, gamma = parts
    base = a / n ** alpha + b / d ** beta + c
    x_factor = np.exp(-x / gamma) if orientation == MITIGATING else np.exp(gamma * x)
    return base + d_coef * (d ** beta_p / n ** alpha_p) * x_factor


def _loss_symmetric(parts, n, d, x, orientation):
    a, b, c, alpha, beta = parts
    return a * n ** alpha / d ** beta + b * d ** beta / n ** alpha + c


def _loss_asymmetric(parts, n, d, x, orientation):
    a, b, c, alpha, beta, alpha_p, beta_p = parts
    return a * n ** alpha / d ** beta + b * d ** beta_p / n ** alpha_p + c


# ---------------------------------------------------------------------
# Gradients in u = ln(theta). Each takes a law form's arguments plus
# logs = (ln n, ln d, ln x) (see log_inputs) and a point theta, and
# repeats its form's arithmetic, so the value it returns equals the
# evaluator's bit for bit. Derivatives come as rows, one per parameter:
# capacity-family gradients return (bandwidth, snr, d ln(bandwidth)/du,
# d ln(snr)/du), combined by _capacity_gradient; baselines return
# (loss, dL/du).
# ---------------------------------------------------------------------

def _rows(like, *rows):
    """Stack per-parameter rows (arrays shaped like `like`, or scalars)."""
    out = np.empty((len(rows),) + np.shape(like))
    for i, row in enumerate(rows):
        out[i] = row
    return out


def _shannon9_gradient(parts, n, d, ln_n, ln_d, signal, coupled, ln_coupled):
    """Shared by the 9-parameter capacity forms: bandwidth a*n^alpha and
    snr = signal / (c*coupled^gamma + d*D^delta + e), signal = b*D^beta
    times any X factor."""
    a, b, c, d_coef, e, alpha, beta, gamma, delta = parts
    interaction = c * coupled ** gamma
    data_noise = d_coef * d ** delta
    noise = interaction + data_noise + e
    interaction_share = -interaction / noise
    data_noise_share = -data_noise / noise
    grad_bandwidth = _rows(n, 1.0, 0.0, 0.0, 0.0, 0.0, alpha * ln_n, 0.0, 0.0, 0.0)
    grad_snr = _rows(n, 0.0, 1.0, interaction_share, data_noise_share, -e / noise, 0.0,
                     beta * ln_d, gamma * ln_coupled * interaction_share,
                     delta * ln_d * data_noise_share)
    return a * n ** alpha, signal / noise, grad_bandwidth, grad_snr


def _shannon_full_gradient(parts, n, d, x, orientation, logs):
    ln_n, ln_d, _ = logs
    b, beta = parts[1], parts[6]
    return _shannon9_gradient(parts, n, d, ln_n, ln_d, b * d ** beta, d * n, ln_d + ln_n)


def _shannon_simplified_gradient(parts, n, d, x, orientation, logs):
    a, c, alpha, beta, gamma, delta = parts
    ln_n, ln_d, _ = logs
    interaction = c * (d * n) ** gamma
    data_noise = d ** delta
    noise = interaction + data_noise
    interaction_share = -interaction / noise
    grad_bandwidth = _rows(n, 1.0, 0.0, alpha * ln_n, 0.0, 0.0, 0.0)
    grad_snr = _rows(n, 0.0, interaction_share, 0.0, beta * ln_d,
                     gamma * (ln_d + ln_n) * interaction_share,
                     -delta * ln_d * data_noise / noise)
    return a * n ** alpha, d ** beta / noise, grad_bandwidth, grad_snr


def _shannon_extended_gradient(parts, n, d, x, orientation, logs):
    ln_n, ln_d, _ = logs
    b, beta = parts[1], parts[6]
    signal = b * d ** beta
    signal = signal * x if orientation == MITIGATING else signal / x
    return _shannon9_gradient(parts, n, d, ln_n, ln_d, signal, d * n, ln_d + ln_n)


def _shannon_sizeonly_ablation_gradient(parts, n, d, x, orientation, logs):
    ln_n, ln_d, _ = logs
    b, beta = parts[1], parts[6]
    return _shannon9_gradient(parts, n, d, ln_n, ln_d, b * d ** beta, n, ln_n)


def _loss_openai_gradient(parts, n, d, x, orientation, logs):
    a, b, alpha, beta = parts
    ln_n, _, _ = logs
    size_term = (a / n) ** (alpha / beta)
    data_term = b / d
    total = size_term + data_term
    loss = total ** beta
    per_total = loss / total
    d_a = alpha * size_term * per_total
    d_alpha = (math.log(a) - ln_n) * d_a
    return loss, _rows(n, d_a, beta * data_term * per_total, d_alpha,
                       beta * np.log(total) * loss - d_alpha)


def _loss_chinchilla_gradient(parts, n, d, x, orientation, logs):
    a, b, c, alpha, beta = parts
    ln_n, ln_d, _ = logs
    size_term = a / n ** alpha
    data_term = b / d ** beta
    return size_term + data_term + c, _rows(
        n, size_term, data_term, c, -alpha * ln_n * size_term, -beta * ln_d * data_term
    )


def _loss_qid_gradient(parts, n, d, x, orientation, logs):
    a, b, c, d_coef, alpha, beta, alpha_p, beta_p, gamma = parts
    ln_n, ln_d, ln_x = logs
    size_term = a / n ** alpha
    data_term = b / d ** beta
    if orientation == MITIGATING:
        x_power, d_x_power = x ** (-gamma), -gamma * ln_x
    else:
        x_power, d_x_power = x ** gamma, gamma * ln_x
    penalty = d_coef * n ** alpha_p * d ** beta_p * x_power
    return size_term + data_term + c + penalty, _rows(
        n, size_term, data_term, c, penalty, -alpha * ln_n * size_term,
        -beta * ln_d * data_term, alpha_p * ln_n * penalty, beta_p * ln_d * penalty,
        d_x_power * penalty,
    )


def _loss_precision_gradient(parts, n, d, x, orientation, logs):
    a, b, c, d_coef, alpha, beta, alpha_p, beta_p, gamma = parts
    ln_n, ln_d, _ = logs
    size_term = a / n ** alpha
    data_term = b / d ** beta
    if orientation == MITIGATING:
        x_factor, d_x_factor = np.exp(-x / gamma), x / gamma
    else:
        x_factor, d_x_factor = np.exp(gamma * x), gamma * x
    penalty = d_coef * (d ** beta_p / n ** alpha_p) * x_factor
    return size_term + data_term + c + penalty, _rows(
        n, size_term, data_term, c, penalty, -alpha * ln_n * size_term,
        -beta * ln_d * data_term, -alpha_p * ln_n * penalty, beta_p * ln_d * penalty,
        d_x_factor * penalty,
    )


def _loss_symmetric_gradient(parts, n, d, x, orientation, logs):
    a, b, c, alpha, beta = parts
    ln_n, ln_d, _ = logs
    size_over_data = a * n ** alpha / d ** beta
    data_over_size = b * d ** beta / n ** alpha
    spread = size_over_data - data_over_size
    return size_over_data + data_over_size + c, _rows(
        n, size_over_data, data_over_size, c, alpha * ln_n * spread, -beta * ln_d * spread
    )


def _loss_asymmetric_gradient(parts, n, d, x, orientation, logs):
    a, b, c, alpha, beta, alpha_p, beta_p = parts
    ln_n, ln_d, _ = logs
    size_over_data = a * n ** alpha / d ** beta
    data_over_size = b * d ** beta_p / n ** alpha_p
    return size_over_data + data_over_size + c, _rows(
        n, size_over_data, data_over_size, c, alpha * ln_n * size_over_data,
        -beta * ln_d * size_over_data, -alpha_p * ln_n * data_over_size,
        beta_p * ln_d * data_over_size,
    )


@dataclass(frozen=True)
class LawSpec:
    """A registered law form: one row of the law table.

    Attributes:
        law_id: One of :data:`LAW_IDS`.
        param_names: Ordered names of the positive fitted constants.
        x_domain: The perturbation scalar X the law takes: "none",
            "finite" (any finite X) or "positive" (X > 0).
        evaluator: The closed form, see the law forms above.
        gradient: The evaluator's derivative in u = ln(theta), see the
            gradients above.
        capacity_family: Whether `evaluator` returns (bandwidth, snr)
            rather than the loss.
        x_orientation: "mitigating", "amplifying", or "none" — whether a
            larger X reduces or increases the degradation term.
    """

    law_id: str
    param_names: tuple[str, ...]
    x_domain: str
    evaluator: Callable = field(repr=False)
    gradient: Callable = field(repr=False)
    capacity_family: bool = False
    x_orientation: str = NO_X

    def __post_init__(self) -> None:
        if self.needs_x and self.x_orientation not in (MITIGATING, AMPLIFYING):
            raise LawDomainError(
                f"{self.law_id} requires x_orientation 'mitigating' or 'amplifying'"
            )
        if not self.needs_x and self.x_orientation != NO_X:
            raise LawDomainError(f"{self.law_id} takes no X; x_orientation must be 'none'")

    @property
    def needs_x(self) -> bool:
        """Whether evaluation requires a perturbation scalar X."""
        return self.x_domain != NO_X

    @property
    def n_params(self) -> int:
        return len(self.param_names)

    def check_x(self, x):
        """X as a float array (None if the law takes no X); raises
        LawDomainError unless X is present exactly when the law takes one
        and lies in the law's domain."""
        if not self.needs_x:
            if x is not None:
                raise LawDomainError(f"law {self.law_id} takes no x")
            return None
        if x is None:
            raise LawDomainError(f"law {self.law_id} requires x")
        x_arr = np.asarray(x, dtype=float)
        if np.any(~np.isfinite(x_arr)):
            raise LawDomainError("x must be finite")
        if self.x_domain == X_POSITIVE and np.any(x_arr <= 0):
            raise LawDomainError(f"law {self.law_id} requires x > 0")
        return x_arr


_SHANNON_PARAMS = ("a", "b", "c", "d", "e", "alpha", "beta", "gamma", "delta")
_X_PENALTY_PARAMS = ("a", "b", "c", "d", "alpha", "beta", "alpha_prime", "beta_prime", "gamma")

#: The law table, the single definition of every law, in registry order.
_REGISTRY: tuple[LawSpec, ...] = (
    LawSpec("shannon_full", _SHANNON_PARAMS, NO_X, _shannon_full, _shannon_full_gradient,
            capacity_family=True),
    LawSpec("shannon_simplified", ("a", "c", "alpha", "beta", "gamma", "delta"), NO_X,
            _shannon_simplified, _shannon_simplified_gradient, capacity_family=True),
    LawSpec("shannon_extended", _SHANNON_PARAMS, X_POSITIVE, _shannon_extended,
            _shannon_extended_gradient, capacity_family=True, x_orientation=MITIGATING),
    LawSpec("openai", ("a", "b", "alpha", "beta"), NO_X, _loss_openai, _loss_openai_gradient),
    LawSpec("chinchilla", ("a", "b", "c", "alpha", "beta"), NO_X, _loss_chinchilla,
            _loss_chinchilla_gradient),
    LawSpec("qid", _X_PENALTY_PARAMS, X_POSITIVE, _loss_qid, _loss_qid_gradient,
            x_orientation=MITIGATING),
    LawSpec("precision", _X_PENALTY_PARAMS, X_FINITE, _loss_precision,
            _loss_precision_gradient, x_orientation=MITIGATING),
    LawSpec("symmetric", ("a", "b", "c", "alpha", "beta"), NO_X, _loss_symmetric,
            _loss_symmetric_gradient),
    LawSpec("asymmetric", ("a", "b", "c", "alpha", "beta", "alpha_prime", "beta_prime"),
            NO_X, _loss_asymmetric, _loss_asymmetric_gradient),
    LawSpec("shannon_sizeonly_ablation", _SHANNON_PARAMS, NO_X, _shannon_sizeonly_ablation,
            _shannon_sizeonly_ablation_gradient, capacity_family=True),
)
_BY_ID: dict[str, LawSpec] = {spec.law_id: spec for spec in _REGISTRY}

LAW_IDS = tuple(_BY_ID)
SHANNON_FAMILY = tuple(spec.law_id for spec in _REGISTRY if spec.capacity_family)


def law_registry() -> list[LawSpec]:
    """All registered laws in stable order (capacity family first)."""
    return list(_REGISTRY)


def get_law(law_id: str) -> LawSpec:
    try:
        return _BY_ID[law_id]
    except KeyError:
        raise LawDomainError(
            f"unknown law id {law_id!r}; known: {', '.join(LAW_IDS)}"
        ) from None


def with_orientation(law: LawSpec, orientation: str | None) -> LawSpec:
    """Return `law` with its X orientation overridden (no-op on None)."""
    if orientation is None or orientation == law.x_orientation:
        return law
    return replace(law, x_orientation=orientation)


def apply_orientation(law: LawSpec, orientation: str | None) -> LawSpec:
    """Fit-time orientation override: honored by X-aware laws, silently
    irrelevant for the rest (so one flag can cover a mixed law list)."""
    if law.needs_x:
        return with_orientation(law, orientation)
    return law


@dataclass(frozen=True)
class ParamVector:
    """Positive parameter values aligned with a law's param_names."""

    law_id: str
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        names = get_law(self.law_id).param_names
        if len(self.values) != len(names):
            raise LawDomainError(
                f"{self.law_id} takes {len(names)} parameters, got {len(self.values)}"
            )
        for name, value in zip(names, self.values):
            if not (math.isfinite(value) and value > 0):
                raise LawDomainError(
                    f"parameter {name} of {self.law_id} must be a positive finite "
                    f"real, got {value}"
                )

    @classmethod
    def from_dict(cls, law_id: str, values: Mapping[str, float]) -> "ParamVector":
        names = get_law(law_id).param_names
        missing = [n for n in names if n not in values]
        if missing:
            raise LawDomainError(f"missing parameter(s) for {law_id}: {', '.join(missing)}")
        return cls(law_id, tuple(float(values[n]) for n in names))

    def as_dict(self) -> dict[str, float]:
        return dict(zip(get_law(self.law_id).param_names, self.values))


# ---------------------------------------------------------------------
# Raw evaluation (vectorized, non-raising; caller inspects finiteness)
# ---------------------------------------------------------------------

def _split_theta(theta):
    """Parameter components for evaluation.

    A 1-D theta yields Python floats (point evaluation). A 2-D theta of
    shape (batch, p) yields (batch, 1) columns so one call evaluates a
    whole batch of parameter vectors against the same inputs; results
    then have shape (batch, n_points).
    """
    arr = np.asarray(theta, dtype=float)
    if arr.ndim == 1:
        return tuple(arr.tolist())
    return tuple(arr[:, j:j + 1] for j in range(arr.shape[1]))


def _capacity(bandwidth, snr):
    return bandwidth * np.log2(1.0 + snr)


def _capacity_gradient(bandwidth, snr, grad_bandwidth, grad_snr):
    """Loss L = 1/C and its u-gradient rows, from the log-gradients of
    bandwidth and snr: dL/du = -L * (g_B + k * g_S) with
    k = S / ((1 + S) ln(1 + S))."""
    loss = 1.0 / _capacity(bandwidth, snr)
    k = snr / ((1.0 + snr) * np.log1p(snr))
    return loss, -loss * (grad_bandwidth + k * grad_snr)


def evaluate_raw(law: LawSpec, theta: Sequence[float], n, d, x=None) -> np.ndarray:
    """Evaluate a law without domain checks.

    Returns an array that may contain inf/NaN; used by the fitter (which
    treats non-finite values as rejected steps) and by grid evaluation
    (which masks error cells). Prefer :func:`predict_loss` elsewhere.
    """
    if law.needs_x and x is None:
        raise LawDomainError(f"law {law.law_id} requires x")
    with np.errstate(all="ignore"):
        value = law.evaluator(_split_theta(theta), n, d, x, law.x_orientation)
        if law.capacity_family:
            value = 1.0 / _capacity(*value)
        return np.asarray(value, dtype=float)


def log_inputs(law: LawSpec, n: np.ndarray, d: np.ndarray, x: np.ndarray | None) -> tuple:
    """(ln n, ln d, ln x) for :func:`evaluate_with_jacobian`; ln x only
    for laws whose X domain is X > 0, else None."""
    ln_x = np.log(x) if law.x_domain == X_POSITIVE else None
    return np.log(n), np.log(d), ln_x


def evaluate_with_jacobian(
    law: LawSpec,
    theta: np.ndarray,
    n: np.ndarray,
    d: np.ndarray,
    x: np.ndarray | None,
    logs: tuple,
) -> tuple[np.ndarray, np.ndarray]:
    """Predicted losses and their analytic Jacobian in u = ln(theta).

    Args:
        law: Law to evaluate (its orientation is honored).
        theta: One parameter vector, shape (p,).
        n, d, x: Inputs as 1-D arrays of equal length (x None for laws
            without X), with X in the law's domain.
        logs: ``log_inputs(law, n, d, x)``, computed once per data set.

    Returns:
        (loss, jac): loss of shape [n_obs], equal to :func:`evaluate_raw`
        bit for bit, and jac of shape [n_obs, n_params]. No domain
        checks: entries may be non-finite.
    """
    parts = _split_theta(theta)
    with np.errstate(all="ignore"):
        if law.capacity_family:
            loss, rows = _capacity_gradient(
                *law.gradient(parts, n, d, x, law.x_orientation, logs)
            )
        else:
            loss, rows = law.gradient(parts, n, d, x, law.x_orientation, logs)
    return loss, rows.T


# ---------------------------------------------------------------------
# Validated evaluation
# ---------------------------------------------------------------------

def _coerce_inputs(law: LawSpec, n, d, x):
    scalar = np.ndim(n) == 0 and np.ndim(d) == 0
    n_arr = np.asarray(n, dtype=float)
    d_arr = np.asarray(d, dtype=float)
    if np.any(~np.isfinite(n_arr)) or np.any(n_arr <= 0):
        raise LawDomainError("n must be positive and finite")
    if np.any(~np.isfinite(d_arr)) or np.any(d_arr <= 0):
        raise LawDomainError("d must be positive and finite")
    return n_arr, d_arr, law.check_x(x), scalar


def _finalize(values: np.ndarray, scalar: bool):
    return float(values) if scalar and values.ndim == 0 else values


def _capacity_checked(law: LawSpec, params: ParamVector, n, d, x):
    n_arr, d_arr, x_arr, scalar = _coerce_inputs(law, n, d, x)
    parts = _split_theta(params.values)
    with np.errstate(all="ignore"):
        bandwidth, snr = law.evaluator(parts, n_arr, d_arr, x_arr, law.x_orientation)
        if np.any(~np.isfinite(snr)):
            raise LawDomainError(f"{law.law_id}: SNR overflowed to a non-finite value")
        cap = np.asarray(_capacity(bandwidth, snr), dtype=float)
    if np.any(cap == 0.0):
        raise LawDomainError(f"{law.law_id}: zero capacity (SNR underflow); loss undefined")
    if np.any(~np.isfinite(cap)):
        raise LawDomainError(f"{law.law_id}: capacity overflowed")
    return _finalize(cap, scalar)


def capacity(params: ParamVector, n, d, x=None, law: LawSpec | None = None):
    """Effective capacity C of a capacity-family law at (n, d[, x]).

    Args:
        params: Parameters of a capacity-family law.
        n: Normalized model size(s), positive.
        d: Normalized token count(s), positive.
        x: Perturbation scalar; required exactly for the extended law.
        law: Optional LawSpec overriding the registry default (used to
            carry a non-default X orientation).

    Returns:
        Positive capacity, scalar or array matching the inputs.

    Raises:
        LawDomainError: non-positive inputs, missing/forbidden x, SNR
            overflow, zero capacity, or capacity overflow.
    """
    if law is None:
        law = get_law(params.law_id)
    if not law.capacity_family:
        raise LawDomainError(f"capacity is defined for {SHANNON_FAMILY}, not {law.law_id}")
    return _capacity_checked(law, params, n, d, x)


def predict_loss(law: LawSpec, params: ParamVector, n, d, x=None):
    """Predicted positive test loss at (n, d[, x]) under `law`.

    Capacity-family laws return the reciprocal of :func:`capacity`;
    baselines return their closed form directly.

    Raises:
        LawDomainError: propagated capacity errors, or a non-finite /
            non-positive predicted loss.
    """
    if params.law_id != law.law_id:
        raise LawDomainError(
            f"parameter vector is for {params.law_id}, law is {law.law_id}"
        )
    if law.capacity_family:
        values = 1.0 / _capacity_checked(law, params, n, d, x)
    else:
        n_arr, d_arr, x_arr, scalar = _coerce_inputs(law, n, d, x)
        values = _finalize(evaluate_raw(law, params.values, n_arr, d_arr, x_arr), scalar)
    if np.any(~np.isfinite(values)):
        raise LawDomainError(f"{law.law_id}: prediction overflowed to a non-finite value")
    if np.any(values <= 0):
        raise LawDomainError(f"{law.law_id}: non-positive predicted loss")
    return values


def _observed_x(law: LawSpec, data: ObservationSet) -> np.ndarray | None:
    if not law.needs_x:
        return None
    x = data.x_values()
    if np.any(np.isnan(x)):
        raise LawDomainError(f"law {law.law_id} requires x_level on every observation")
    return x


def predict_dataset(law: LawSpec, params: ParamVector, data: ObservationSet) -> np.ndarray:
    """Predicted losses for every observation, in data order.

    Observations are normalized by the set's recorded normalization
    before evaluation. Domain errors propagate.
    """
    x = _observed_x(law, data)
    return np.asarray(predict_loss(law, params, data.n_norm(), data.d_norm(), x), dtype=float)


# ---------------------------------------------------------------------
# Finite-difference Jacobian (the oracle for the analytic gradients)
# ---------------------------------------------------------------------

MAX_JACOBIAN_STEP = 1e-2
DEFAULT_JACOBIAN_STEP = 1e-6


def jacobian_fd(
    law: LawSpec,
    params: ParamVector,
    observations: ObservationSet,
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
        LawDomainError: invalid step, or a non-evaluable observation.
    """
    if not (0 < step_rel <= MAX_JACOBIAN_STEP):
        raise LawDomainError(f"step_rel must be in (0, {MAX_JACOBIAN_STEP}], got {step_rel}")
    n = observations.n_norm()
    d = observations.d_norm()
    x = _observed_x(law, observations)
    base = evaluate_raw(law, params.values, n, d, x)
    if np.any(~np.isfinite(base)):
        raise LawDomainError(f"{law.law_id}: non-evaluable observation at the given parameters")
    jac = jacobian_fd_arrays(law, np.asarray(params.values), n, d, x, step_rel)
    if np.any(~np.isfinite(jac)):
        raise LawDomainError(f"{law.law_id}: non-finite Jacobian entry at the given parameters")
    return jac


def jacobian_fd_arrays(
    law: LawSpec,
    theta: np.ndarray,
    n: np.ndarray,
    d: np.ndarray,
    x: np.ndarray | None,
    step_rel: float,
) -> np.ndarray:
    """Array-level Jacobian core (no validation; entries may be non-finite).

    All 2p perturbed parameter vectors are evaluated in one batched call.
    """
    theta = np.asarray(theta, dtype=float)
    p = theta.size
    batch = np.tile(theta, (2 * p, 1))
    idx = np.arange(p)
    batch[idx, idx] *= math.exp(step_rel)
    batch[p + idx, idx] *= math.exp(-step_rel)
    values = evaluate_raw(law, batch, n, d, x)  # (2p, n_obs)
    return (values[:p] - values[p:]).T / (2.0 * step_rel)
