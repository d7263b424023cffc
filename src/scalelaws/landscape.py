"""Dense (N, D) evaluation of fitted laws and loss-basin analysis.

A loss grid evaluates a law on a log- or linear-spaced lattice over a
rectangle of raw (N, D) values, recording non-evaluable cells as
explicit error markers rather than NaNs. Cells and the 1-D scan below
are evaluated by ``laws._checked_losses``, as ``predict_loss`` is, so a
cell is an error marker exactly where ``predict_loss`` refuses it.
Basin detection asks whether the lattice minimum sits strictly inside
the rectangle, and classifies each axis as decreasing, increasing, or
U-shaped by majority over the per-slice shapes. A 1-D variant scans one
axis on a log lattice, then zooms on the best point with finer ones.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .dataset import IDENTITY_NORMALIZATION, Normalization
from .errors import DataValidationError, LawDomainError
from .fitter import FitResult
from .laws import _D_COUPLED_FAMILY, SHANNON_FAMILY, LawSpec, ParamVector, _checked_losses
from .perturb import _writing

SPACINGS = ("log", "linear")

DECREASING = "decreasing"
INCREASING = "increasing"
U_SHAPED = "u_shaped"
MIXED = "mixed"

_ZOOM_POINTS = 9
_ZOOM_TOL = 1e-12
_ZOOM_MAX_ROUNDS = 64


@dataclass(frozen=True)
class GridSpec:
    """A rectangular lattice over raw (N, D) values."""

    n_min: float
    n_max: float
    d_min: float
    d_max: float
    n_steps: int
    d_steps: int
    spacing: str = "log"

    def __post_init__(self) -> None:
        for name, lo, hi in (("n", self.n_min, self.n_max), ("d", self.d_min, self.d_max)):
            if not (math.isfinite(lo) and lo > 0):
                raise DataValidationError(f"{name}_min must be a positive real, got {lo}")
            if not (math.isfinite(hi) and hi > lo):
                raise DataValidationError(f"{name}_max must exceed {name}_min, got {hi}")
        if self.n_steps < 2 or self.d_steps < 2:
            raise DataValidationError("n_steps and d_steps must be >= 2")
        if self.spacing not in SPACINGS:
            raise DataValidationError(f"spacing must be one of {SPACINGS}, got {self.spacing!r}")

    def n_axis(self) -> np.ndarray:
        return _axis(self.n_min, self.n_max, self.n_steps, self.spacing)

    def d_axis(self) -> np.ndarray:
        return _axis(self.d_min, self.d_max, self.d_steps, self.spacing)


def _axis(lo: float, hi: float, steps: int, spacing: str) -> np.ndarray:
    if spacing == "log":
        return np.geomspace(lo, hi, steps)
    return np.linspace(lo, hi, steps)


@dataclass(frozen=True)
class LossGrid:
    """Law evaluations over a lattice; error cells carried as a mask.

    `values` has shape [n_steps, d_steps], row index over N, column
    index over D. Masked entries hold 0.0 and must be ignored.
    """

    spec: GridSpec
    law_id: str
    params: ParamVector
    normalization: Normalization
    x: float | None
    n_values: np.ndarray
    d_values: np.ndarray
    values: np.ndarray
    error_mask: np.ndarray

    def n_evaluable(self) -> int:
        return int((~self.error_mask).sum())

    def to_csv(self, destination) -> None:
        """Write the grid as CSV to a path or a text stream.

        The first line is the header `n,d,loss`; then one line per cell,
        row-major (N outer, D inner). Each field is the shortest
        round-trip `repr` of the float, and an error cell's loss field
        is empty. Lines end in CRLF (`\\r\\n`), as `csv.writer` writes
        them; no field is ever quoted. Text is built and written one N
        row at a time, so working memory is O(d_steps). A path is written
        by `perturb._writing`, like every output file.
        """
        if isinstance(destination, (str, Path)):
            with _writing(destination) as [fh]:
                self.to_csv(fh)
            return
        d_fields = [repr(d) for d in self.d_values.tolist()]
        destination.write("n,d,loss\r\n")
        for n, row, errors in zip(self.n_values.tolist(), self.values, self.error_mask):
            prefix = repr(n)
            losses = ["" if bad else repr(v) for v, bad in zip(row.tolist(), errors.tolist())]
            destination.write("".join(
                [f"{prefix},{d},{loss}\r\n" for d, loss in zip(d_fields, losses)]))


def grid_eval(
    law: LawSpec,
    params: ParamVector,
    spec: GridSpec,
    x: float | None = None,
    normalization: Normalization = IDENTITY_NORMALIZATION,
) -> LossGrid:
    """Evaluate predicted loss at every lattice point.

    Grid bounds are raw units; `normalization` (the one recorded in the
    originating fit) is applied before evaluation. Domain errors are
    recorded per cell, not raised, unless the whole grid is
    non-evaluable.
    """
    n_axis, d_axis = spec.n_axis(), spec.d_axis()
    with np.errstate(all="ignore"):
        n, d = n_axis[:, None] / normalization.n_scale, d_axis[None, :] / normalization.d_scale
    values, mask = _checked_losses(law, params, n, d, x)
    if mask.all():
        raise LawDomainError(f"{law.law_id}: entirely non-evaluable grid")
    values[mask] = 0.0
    return LossGrid(
        spec=spec,
        law_id=law.law_id,
        params=params,
        normalization=normalization,
        x=x,
        n_values=n_axis,
        d_values=d_axis,
        values=values,
        error_mask=mask,
    )


@dataclass(frozen=True)
class BasinReport:
    """Interior-minimum analysis of a loss grid.

    `argmin` is in raw (n, d) units. Axis verdicts are majority classes
    over fixed-other-axis slices; exact count ties break toward
    "u_shaped", then "decreasing", and an axis with no decreasing,
    increasing or u_shaped slice reads "mixed". Slices with error cells
    classify on their longest evaluable run and are counted in
    partial_slices.
    """

    has_interior_minimum: bool
    argmin: tuple[float, float]
    min_value: float
    boundary_min: bool
    monotonic_n: str
    monotonic_d: str
    partial_slices: int = 0

    def to_dict(self) -> dict:
        return {**asdict(self), "argmin": dict(zip("nd", self.argmin))}


def _longest_run(valid: np.ndarray) -> tuple[int, int]:
    """(start, stop) of the longest contiguous True run; earliest wins ties."""
    best = (0, 0)
    start = None
    for i, flag in enumerate(list(valid) + [False]):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            if i - start > best[1] - best[0]:
                best = (start, i)
            start = None
    return best


def classify_slice(values: np.ndarray, valid: np.ndarray | None = None) -> tuple[str, bool]:
    """Shape of a 1-D slice: strict decrease, strict increase, strict
    decrease-then-increase (u_shaped), or "mixed".

    Returns:
        (classification, partial) where partial flags that error cells
        forced classification onto a contiguous sub-run.
    """
    values = np.asarray(values, dtype=float)
    if valid is None:
        valid = np.ones(values.shape, dtype=bool)
    partial = not valid.all()
    start, stop = (0, len(values)) if not partial else _longest_run(valid)
    segment = values[start:stop]
    if len(segment) < 2:
        return MIXED, partial
    diffs = np.diff(segment)
    neg = diffs < 0
    pos = diffs > 0
    if neg.all():
        return DECREASING, partial
    if pos.all():
        return INCREASING, partial
    if (neg | pos).all() and neg.any() and pos.any():
        turn = int(np.argmax(pos))
        if neg[:turn].all() and pos[turn:].all():
            return U_SHAPED, partial
    return MIXED, partial


def _majority(classes: list[str]) -> str:
    counts = {DECREASING: 0, U_SHAPED: 0, INCREASING: 0}
    for c in classes:
        if c in counts:
            counts[c] += 1
    top = max(counts.values())
    if top == 0:
        return MIXED
    leaders = [c for c in (U_SHAPED, DECREASING, INCREASING) if counts[c] == top]
    return leaders[0]


def detect_basin(grid: LossGrid) -> BasinReport:
    """Locate the lattice minimum and classify monotonicity per axis.

    The basin verdict is conservative: the minimum counts as interior
    only when every cell tied for the minimum lies strictly inside the
    lattice.

    Raises:
        DataValidationError: fewer than 3 samples on either axis.
        LawDomainError: no evaluable cells.
    """
    n_steps, d_steps = grid.values.shape
    if n_steps < 3 or d_steps < 3:
        raise DataValidationError(
            "basin detection requires at least 3 samples per axis, got "
            f"{n_steps} x {d_steps}"
        )
    evaluable = ~grid.error_mask
    if not evaluable.any():
        raise LawDomainError("grid has no evaluable cells")

    masked = np.where(evaluable, grid.values, np.inf)
    min_value = float(masked.min())
    tied = np.argwhere(masked == min_value)
    on_boundary = [
        i in (0, n_steps - 1) or j in (0, d_steps - 1) for i, j in tied
    ]
    boundary_min = any(on_boundary)
    first = min(tied.tolist())  # row-major first
    argmin = (float(grid.n_values[first[0]]), float(grid.d_values[first[1]]))

    # N-axis slices are the columns (fixed d, vary n), D-axis slices the rows
    slices = [[classify_slice(row, ok) for row, ok in zip(values, valid)]
              for values, valid in ((grid.values.T, evaluable.T), (grid.values, evaluable))]
    monotonic_n, monotonic_d = (_majority([cls for cls, _ in axis]) for axis in slices)

    return BasinReport(
        has_interior_minimum=not boundary_min,
        argmin=argmin,
        min_value=min_value,
        boundary_min=boundary_min,
        monotonic_n=monotonic_n,
        monotonic_d=monotonic_d,
        partial_slices=sum(partial for axis in slices for _, partial in axis),
    )


def optimal_along_axis(
    law: LawSpec,
    params: ParamVector,
    fixed_axis: str,
    fixed_value: float,
    search_range: tuple[float, float],
    resolution: int,
    x: float | None = None,
    normalization: Normalization = IDENTITY_NORMALIZATION,
) -> tuple[float, float, str]:
    """Scan the non-fixed axis on a log lattice, then zoom on the best point.

    Each zoom round re-scans a 9-point log lattice between the best
    point's two neighbours and keeps the best point seen, until the
    bracket is narrower than 1e-12 in log space. Every point goes to
    ``laws._checked_losses`` as float arrays, as grid cells do.

    Args:
        fixed_axis: "N" holds model size fixed and scans D; "D" holds
            token count fixed and scans N.
        fixed_value: Raw value of the fixed axis.
        search_range: (low, high) raw bounds of the scanned axis.
        resolution: Lattice points, >= 3.

    Returns:
        (arg, value, classification): the refined raw argmin of the
        scanned axis, the loss there (never above the best lattice
        value), and the lattice slice's shape classification.
    """
    fixed_axis = fixed_axis.upper()
    if fixed_axis not in ("N", "D"):
        raise DataValidationError(f"fixed_axis must be 'N' or 'D', got {fixed_axis!r}")
    if resolution < 3:
        raise DataValidationError(f"resolution must be >= 3, got {resolution}")
    lo, hi = search_range
    if not (math.isfinite(lo) and math.isfinite(hi) and 0 < lo < hi):
        raise DataValidationError(f"search_range must satisfy 0 < low < high, got {search_range}")
    if not (math.isfinite(fixed_value) and fixed_value > 0):
        raise DataValidationError(f"fixed_value must be positive, got {fixed_value}")

    lattice = np.geomspace(lo, hi, resolution)

    def losses(lattice):
        fixed = np.full_like(lattice, fixed_value)
        n, d = (fixed, lattice) if fixed_axis == "N" else (lattice, fixed)
        with np.errstate(all="ignore"):
            n, d = n / normalization.n_scale, d / normalization.d_scale
        return _checked_losses(law, params, n, d, x)

    values, bad = losses(lattice)
    if bad.all():
        raise LawDomainError(f"{law.law_id}: non-evaluable slice")
    classification, _ = classify_slice(values, ~bad)

    # The bracket spans two of the zoom lattice's eight equal log steps (one
    # at an end): each round narrows it fourfold, so the normal float
    # range's log width of ~1418 reaches the tolerance (>= 1e-12) within 26
    # rounds. Among subnormals the lattice repeats points and the bracket
    # can stop narrowing; the round cap ends that case.
    best_arg, best_val = lo, math.inf
    for _ in range(_ZOOM_MAX_ROUNDS):
        masked = np.where(bad, np.inf, values)
        i = int(np.argmin(masked))
        if masked[i] < best_val:
            best_arg, best_val = float(lattice[i]), float(masked[i])
        left, right = lattice[max(i - 1, 0)], lattice[min(i + 1, lattice.size - 1)]
        ln_left, ln_right = math.log(left), math.log(right)
        if ln_right - ln_left <= _ZOOM_TOL * max(1.0, abs(ln_left) + abs(ln_right)):
            break
        lattice = np.geomspace(left, right, _ZOOM_POINTS)
        values, bad = losses(lattice)
    return best_arg, best_val, classification


@dataclass(frozen=True)
class ExponentReport:
    """Fitted exponents of a capacity-family law and what they imply.

    Along N, capacity scales as N^(alpha - gamma) in every capacity
    form. Along D, the SNR scales as D^(beta - max(gamma, delta)) in the
    forms whose interaction noise c*(D*N)^gamma grows with D, and as
    D^(beta - delta) in the size-only ablation. A noise exponent that
    wins on an axis predicts an eventual U-turn along it; a tie predicts
    a loss that levels off.
    """

    alpha: float
    gamma: float
    beta: float
    delta: float
    n_axis_verdict: str
    d_axis_verdict: str

    def to_dict(self) -> dict:
        return asdict(self)


def _verdict(growth: float, noise: float, growth_wins: str) -> str:
    if growth > noise:
        return growth_wins
    if noise > growth:
        return "noise_dominates"
    return "tie"


def exponent_report(fit: FitResult) -> ExponentReport:
    """Extract (alpha, gamma, beta, delta) from a capacity-family fit
    and compare them per axis, with exact equality reported as a tie."""
    if fit.law_id not in SHANNON_FAMILY:
        raise LawDomainError(
            f"exponent_report requires a capacity-family law, got {fit.law_id}"
        )
    values = fit.params.as_dict()
    alpha, beta = values["alpha"], values["beta"]
    gamma, delta = values["gamma"], values["delta"]
    d_noise = max(gamma, delta) if fit.law_id in _D_COUPLED_FAMILY else delta
    return ExponentReport(
        alpha=alpha, gamma=gamma, beta=beta, delta=delta,
        n_axis_verdict=_verdict(alpha, gamma, "bandwidth_dominates"),
        d_axis_verdict=_verdict(beta, d_noise, "signal_dominates"),
    )
