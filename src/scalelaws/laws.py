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
domain and one form function, which returns the law's value together
with its analytic derivative in the log coordinates u = ln(theta) the
fitter works in. LAW_IDS and SHANNON_FAMILY read that table. One
:func:`evaluate` call turns a form into the loss and a derivative closure
that builds the loss Jacobian only when called, so the fitter evaluates
each point once; :func:`jacobian_fd_arrays` stays as the
finite-difference oracle the derivatives are tested against.

Evaluation is vectorized over numpy arrays. Predictions, grid cells and
slice points come from one checked evaluator, ``_checked_losses``.
:func:`predict_loss` raises :class:`~scalelaws.errors.LawDomainError` at
a point it cannot evaluate; infinities and NaNs never escape into results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from .dataset import ObservationSet
from .errors import DataValidationError, LawDomainError

MITIGATING = "mitigating"
AMPLIFYING = "amplifying"
NO_X = "none"

# X domains besides NO_X: any finite X, or X > 0 only.
X_FINITE = "finite"
X_POSITIVE = "positive"


# ---------------------------------------------------------------------
# Law forms. Each takes the parameters as a tuple of floats, the inputs
# and the X orientation, and returns (value, derivative). The
# value is (bandwidth, snr) for the capacity family, giving
# C = bandwidth * log2(1 + snr), and the loss for baselines.
# derivative(logs), with logs = (ln n, ln d, ln x) from log_inputs,
# closes over the value's terms and returns its u = ln(theta) gradient
# as rows, one per parameter: d ln(bandwidth)/du and d ln(snr)/du for
# the capacity family (combined into dL/du by evaluate), dL/du for
# baselines. Gradient-only work stays inside it, so evaluation skips it.
# ---------------------------------------------------------------------

def _rows(like, *rows):
    """Stack per-parameter rows (arrays shaped like `like`, or scalars)."""
    out = np.empty((len(rows),) + np.shape(like))
    for i, row in enumerate(rows):
        out[i] = row
    return out


def _shannon9(parts, n, d, signal, coupled, couples_d):
    """Shared by the 9-parameter capacity forms: bandwidth a*n^alpha and
    snr = signal / (c*coupled^gamma + d*D^delta + e), signal = b*D^beta
    times any X factor, coupled = D*N if `couples_d` else N."""
    a, b, c, d_coef, e, alpha, beta, gamma, delta = parts
    interaction = c * coupled ** gamma
    data_noise = d_coef * d ** delta
    noise = interaction + data_noise + e

    def derivative(logs):
        ln_n, ln_d, _ = logs
        ln_coupled = ln_d + ln_n if couples_d else ln_n
        interaction_share = -interaction / noise
        data_noise_share = -data_noise / noise
        return (_rows(n, 1.0, 0.0, 0.0, 0.0, 0.0, alpha * ln_n, 0.0, 0.0, 0.0),
                _rows(n, 0.0, 1.0, interaction_share, data_noise_share, -e / noise, 0.0,
                      beta * ln_d, gamma * ln_coupled * interaction_share,
                      delta * ln_d * data_noise_share))

    return (a * n ** alpha, signal / noise), derivative


def _shannon_full(parts, n, d, x, orientation):
    b, beta = parts[1], parts[6]
    return _shannon9(parts, n, d, b * d ** beta, d * n, True)


def _shannon_simplified(parts, n, d, x, orientation):
    a, c, alpha, beta, gamma, delta = parts
    interaction = c * (d * n) ** gamma
    data_noise = d ** delta
    noise = interaction + data_noise

    def derivative(logs):
        ln_n, ln_d, _ = logs
        interaction_share = -interaction / noise
        return (_rows(n, 1.0, 0.0, alpha * ln_n, 0.0, 0.0, 0.0),
                _rows(n, 0.0, interaction_share, 0.0, beta * ln_d,
                      gamma * (ln_d + ln_n) * interaction_share,
                      -delta * ln_d * data_noise / noise))

    return (a * n ** alpha, d ** beta / noise), derivative


def _shannon_extended(parts, n, d, x, orientation):
    b, beta = parts[1], parts[6]
    signal = b * d ** beta
    signal = signal * x if orientation == MITIGATING else signal / x
    return _shannon9(parts, n, d, signal, d * n, True)


def _shannon_sizeonly_ablation(parts, n, d, x, orientation):
    b, beta = parts[1], parts[6]
    return _shannon9(parts, n, d, b * d ** beta, n, False)


def _loss_openai(parts, n, d, x, orientation):
    a, b, alpha, beta = parts
    size_term = (a / n) ** (alpha / beta)
    data_term = b / d
    total = size_term + data_term
    loss = total ** beta

    def derivative(logs):
        ln_n, _, _ = logs
        per_total = loss / total
        d_a = alpha * size_term * per_total
        d_alpha = (math.log(a) - ln_n) * d_a
        return _rows(n, d_a, beta * data_term * per_total, d_alpha,
                     beta * np.log(total) * loss - d_alpha)

    return loss, derivative


def _loss_chinchilla(parts, n, d, x, orientation):
    a, b, c, alpha, beta = parts
    size_term = a / n ** alpha
    data_term = b / d ** beta

    def derivative(logs):
        ln_n, ln_d, _ = logs
        return _rows(n, size_term, data_term, c, -alpha * ln_n * size_term,
                     -beta * ln_d * data_term)

    return size_term + data_term + c, derivative


def _loss_qid(parts, n, d, x, orientation):
    a, b, c, d_coef, alpha, beta, alpha_p, beta_p, gamma = parts
    size_term = a / n ** alpha
    data_term = b / d ** beta
    x_power = x ** (-gamma) if orientation == MITIGATING else x ** gamma
    penalty = d_coef * n ** alpha_p * d ** beta_p * x_power

    def derivative(logs):
        ln_n, ln_d, ln_x = logs
        d_x_power = -gamma * ln_x if orientation == MITIGATING else gamma * ln_x
        return _rows(n, size_term, data_term, c, penalty, -alpha * ln_n * size_term,
                     -beta * ln_d * data_term, alpha_p * ln_n * penalty,
                     beta_p * ln_d * penalty, d_x_power * penalty)

    return size_term + data_term + c + penalty, derivative


def _loss_precision(parts, n, d, x, orientation):
    a, b, c, d_coef, alpha, beta, alpha_p, beta_p, gamma = parts
    size_term = a / n ** alpha
    data_term = b / d ** beta
    x_factor = np.exp(-x / gamma) if orientation == MITIGATING else np.exp(gamma * x)
    penalty = d_coef * (d ** beta_p / n ** alpha_p) * x_factor

    def derivative(logs):
        ln_n, ln_d, _ = logs
        d_x_factor = x / gamma if orientation == MITIGATING else gamma * x
        return _rows(n, size_term, data_term, c, penalty, -alpha * ln_n * size_term,
                     -beta * ln_d * data_term, -alpha_p * ln_n * penalty,
                     beta_p * ln_d * penalty, d_x_factor * penalty)

    return size_term + data_term + c + penalty, derivative


def _loss_symmetric(parts, n, d, x, orientation):
    a, b, c, alpha, beta = parts
    size_over_data = a * n ** alpha / d ** beta
    data_over_size = b * d ** beta / n ** alpha

    def derivative(logs):
        ln_n, ln_d, _ = logs
        spread = size_over_data - data_over_size
        return _rows(n, size_over_data, data_over_size, c, alpha * ln_n * spread,
                     -beta * ln_d * spread)

    return size_over_data + data_over_size + c, derivative


def _loss_asymmetric(parts, n, d, x, orientation):
    a, b, c, alpha, beta, alpha_p, beta_p = parts
    size_over_data = a * n ** alpha / d ** beta
    data_over_size = b * d ** beta_p / n ** alpha_p

    def derivative(logs):
        ln_n, ln_d, _ = logs
        return _rows(n, size_over_data, data_over_size, c, alpha * ln_n * size_over_data,
                     -beta * ln_d * size_over_data, -alpha_p * ln_n * data_over_size,
                     beta_p * ln_d * data_over_size)

    return size_over_data + data_over_size + c, derivative


@dataclass(frozen=True)
class LawSpec:
    """A registered law form: one row of the law table.

    Attributes:
        law_id: One of :data:`LAW_IDS`.
        param_names: Ordered names of the positive fitted constants.
        x_domain: The perturbation scalar X the law takes: "none",
            "finite" (any finite X) or "positive" (X > 0).
        form: The closed form, returning its value and a derivative
            in u = ln(theta); see the law forms above.
        capacity_family: Whether the value of `form` is (bandwidth, snr)
            rather than the loss.
        x_orientation: "mitigating", "amplifying", or "none" — whether a
            larger X reduces or increases the degradation term.
    """

    law_id: str
    param_names: tuple[str, ...]
    x_domain: str
    form: Callable = field(repr=False)
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
    LawSpec("shannon_full", _SHANNON_PARAMS, NO_X, _shannon_full, capacity_family=True),
    LawSpec("shannon_simplified", ("a", "c", "alpha", "beta", "gamma", "delta"), NO_X,
            _shannon_simplified, capacity_family=True),
    LawSpec("shannon_extended", _SHANNON_PARAMS, X_POSITIVE, _shannon_extended,
            capacity_family=True, x_orientation=MITIGATING),
    LawSpec("openai", ("a", "b", "alpha", "beta"), NO_X, _loss_openai),
    LawSpec("chinchilla", ("a", "b", "c", "alpha", "beta"), NO_X, _loss_chinchilla),
    LawSpec("qid", _X_PENALTY_PARAMS, X_POSITIVE, _loss_qid, x_orientation=MITIGATING),
    LawSpec("precision", _X_PENALTY_PARAMS, X_FINITE, _loss_precision,
            x_orientation=MITIGATING),
    LawSpec("symmetric", ("a", "b", "c", "alpha", "beta"), NO_X, _loss_symmetric),
    LawSpec("asymmetric", ("a", "b", "c", "alpha", "beta", "alpha_prime", "beta_prime"),
            NO_X, _loss_asymmetric),
    LawSpec("shannon_sizeonly_ablation", _SHANNON_PARAMS, NO_X, _shannon_sizeonly_ablation,
            capacity_family=True),
)
_BY_ID: dict[str, LawSpec] = {spec.law_id: spec for spec in _REGISTRY}

LAW_IDS = tuple(_BY_ID)
SHANNON_FAMILY = tuple(spec.law_id for spec in _REGISTRY if spec.capacity_family)
#: The capacity forms whose interaction noise c*(D*N)^gamma grows with D
#: as well as N; the size-only ablation's c*N^gamma does not.
_D_COUPLED_FAMILY = tuple(law_id for law_id in SHANNON_FAMILY
                          if law_id != "shannon_sizeonly_ablation")


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

def _capacity(bandwidth, snr):
    return bandwidth * np.log2(1.0 + snr)


def evaluate(law: LawSpec, theta, n, d, x=None) -> tuple[np.ndarray, Callable]:
    """Predicted losses and a closure for their Jacobian in u = ln(theta),
    without domain checks: losses may be inf/NaN (the fitter rejects such
    steps, grid evaluation masks them). The caller holds np.errstate
    around both calls: the fitter one per start, :func:`evaluate_raw` one.

    theta is one parameter vector. derivative(logs), with
    ``logs = log_inputs(law, n, d, x)``, builds the [n_obs, n_params]
    Jacobian only when called. For the capacity family, L = 1/C gives
    dL/du = -L * (g_B + k * g_S), with g_B and g_S the log-gradients of
    bandwidth and snr and k = S / ((1 + S) ln(1 + S)).
    """
    if law.needs_x and x is None:
        raise LawDomainError(f"law {law.law_id} requires x")
    parts = tuple(np.asarray(theta, dtype=float).tolist())
    value, form_derivative = law.form(parts, n, d, x, law.x_orientation)
    if law.capacity_family:
        bandwidth, snr = value
        value = 1.0 / _capacity(bandwidth, snr)
    loss = np.asarray(value, dtype=float)

    def derivative(logs):
        rows = form_derivative(logs)
        if law.capacity_family:
            grad_bandwidth, grad_snr = rows
            k = snr / ((1.0 + snr) * np.log1p(snr))
            rows = -loss * (grad_bandwidth + k * grad_snr)
        return rows.T

    return loss, derivative


def evaluate_raw(law: LawSpec, theta: Sequence[float], n, d, x=None) -> np.ndarray:
    """The loss of :func:`evaluate` under np.errstate, unchecked; prefer :func:`predict_loss`."""
    with np.errstate(all="ignore"):
        return evaluate(law, theta, n, d, x)[0]


def log_inputs(law: LawSpec, n: np.ndarray, d: np.ndarray, x: np.ndarray | None) -> tuple:
    """(ln n, ln d, ln x) for the derivative of :func:`evaluate`; ln x
    only for laws whose X domain is X > 0, else None."""
    ln_x = np.log(x) if law.x_domain == X_POSITIVE else None
    return np.log(n), np.log(d), ln_x


# ---------------------------------------------------------------------
# Validated evaluation
# ---------------------------------------------------------------------

def _checked_losses(law: LawSpec, params: ParamVector, n, d, x) -> tuple[np.ndarray, np.ndarray]:
    """Losses at normalized n, d and x, broadcast together, and the mask of
    those that are not positive finite numbers. Raises LawDomainError for
    another law's parameters or an X the law refuses; n and d go unchecked."""
    if params.law_id != law.law_id:
        raise LawDomainError(f"parameter vector is for {params.law_id}, law is {law.law_id}")
    x = law.check_x(x)
    values = evaluate_raw(law, params.values, n, d, x)
    shape = np.broadcast_shapes(np.shape(n), np.shape(d), np.shape(x))
    values = np.broadcast_to(values, shape).astype(float)
    return values, ~np.isfinite(values) | (values <= 0)


def _positive(n, d) -> tuple[np.ndarray, np.ndarray]:
    """n and d as float arrays; LawDomainError unless each is positive and finite."""
    arrays = np.asarray(n, dtype=float), np.asarray(d, dtype=float)
    for name, values in zip("nd", arrays):
        if np.any(~np.isfinite(values)) or np.any(values <= 0):
            raise LawDomainError(f"{name} must be positive and finite")
    return arrays


def _capacity_checked(law: LawSpec, params: ParamVector, n, d, x) -> np.ndarray:
    parts = tuple(map(float, params.values))
    with np.errstate(all="ignore"):
        bandwidth, snr = law.form(parts, n, d, law.check_x(x), law.x_orientation)[0]
        if np.any(~np.isfinite(snr)):
            raise LawDomainError(f"{law.law_id}: SNR overflowed to a non-finite value")
        cap = np.asarray(_capacity(bandwidth, snr), dtype=float)
    if np.any(cap == 0.0):
        raise LawDomainError(f"{law.law_id}: zero capacity (SNR underflow); loss undefined")
    if np.any(~np.isfinite(cap)):
        raise LawDomainError(f"{law.law_id}: capacity overflowed")
    return cap


def capacity(params: ParamVector, n, d, x=None):
    """Effective capacity C of a capacity-family law at (n, d[, x]).

    Args:
        params: Parameters of a capacity-family law.
        n: Normalized model size(s), positive.
        d: Normalized token count(s), positive.
        x: Perturbation scalar; required exactly for the extended law.

    Returns:
        Positive capacity, scalar or array matching the inputs.

    Raises:
        LawDomainError: non-positive inputs, missing/forbidden x, SNR
            overflow, zero capacity, or capacity overflow.
    """
    law = get_law(params.law_id)
    if not law.capacity_family:
        raise LawDomainError(f"capacity is defined for {SHANNON_FAMILY}, not {law.law_id}")
    cap = _capacity_checked(law, params, *_positive(n, d), x)
    return float(cap) if cap.ndim == 0 else cap


def predict_loss(law: LawSpec, params: ParamVector, n, d, x=None):
    """Predicted positive test loss at (n, d[, x]) under `law`: the loss
    of :func:`_checked_losses`, which grid cells and slice points share.

    Raises:
        LawDomainError: non-positive n or d, another law's parameters, a
            missing/forbidden x, the capacity error of a capacity-family
            law, or a non-finite / non-positive predicted loss.
    """
    n, d = _positive(n, d)
    values, bad = _checked_losses(law, params, n, d, x)
    if bad.any():
        if law.capacity_family:
            _capacity_checked(law, params, n, d, x)  # raises the error that names a failing C
        if np.any(~np.isfinite(values)):
            raise LawDomainError(f"{law.law_id}: prediction overflowed to a non-finite value")
        raise LawDomainError(f"{law.law_id}: non-positive predicted loss")
    return float(values) if values.ndim == 0 else values


def observed_x(law: LawSpec, data: ObservationSet) -> np.ndarray | None:
    """X of every observation, or None if `law` takes no X; raises
    DataValidationError if an X-aware law meets a row without x_level."""
    if not law.needs_x:
        return None
    x = data.x_values()
    if np.any(np.isnan(x)):
        raise DataValidationError(f"law {law.law_id} requires x_level on every observation")
    return x


def predict_dataset(law: LawSpec, params: ParamVector, data: ObservationSet) -> np.ndarray:
    """Predicted losses for every observation, in data order.

    Observations are normalized by the set's recorded normalization
    before evaluation. An X-aware law raises DataValidationError on a
    row without x_level; domain errors propagate.
    """
    x = observed_x(law, data)
    return np.asarray(predict_loss(law, params, data.n_norm(), data.d_norm(), x), dtype=float)


# ---------------------------------------------------------------------
# Finite-difference Jacobian (the oracle for the analytic gradients)
# ---------------------------------------------------------------------

def jacobian_fd_arrays(
    law: LawSpec,
    theta: np.ndarray,
    n: np.ndarray,
    d: np.ndarray,
    x: np.ndarray | None,
    step_rel: float,
) -> np.ndarray:
    """Central finite differences of the loss in u = ln(theta), one
    column per parameter: the [n_obs, n_params] oracle for the
    derivative of :func:`evaluate` (no validation; entries may be
    non-finite)."""
    theta = np.asarray(theta, dtype=float)
    columns = []
    for j in range(theta.size):
        up, down = theta.copy(), theta.copy()
        up[j] *= math.exp(step_rel)
        down[j] *= math.exp(-step_rel)
        columns.append(evaluate_raw(law, up, n, d, x) - evaluate_raw(law, down, n, d, x))
    return np.column_stack(columns) / (2.0 * step_rel)
