"""Tabular loss observations: loading, validation, normalization, grouping.

An observation is one measured test loss keyed by (model id, parameter
count N, token count D, optional perturbation level X). Sets of
observations are immutable after construction and carry the
normalization (divisors for N and D) that every downstream fit records
and replays at prediction time.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .errors import DataValidationError

REQUIRED_COLUMNS = ("model_id", "n_params", "d_tokens", "loss")
OPTIONAL_COLUMNS = ("x_level", "source_tag")

#: Default divisor applied to both raw parameter counts and raw token
#: counts before fitting. Keeps power-law exponents well conditioned.
DEFAULT_SCALE = 1e9


@dataclass(frozen=True)
class Normalization:
    """Divisors applied to raw N and D before any law evaluation.

    Recorded verbatim in every fit result so that predictions are
    reproducible against raw inputs.
    """

    n_scale: float = DEFAULT_SCALE
    d_scale: float = DEFAULT_SCALE

    def __post_init__(self) -> None:
        if not (self.n_scale > 0 and math.isfinite(self.n_scale)):
            raise DataValidationError(f"n_scale must be a positive real, got {self.n_scale}")
        if not (self.d_scale > 0 and math.isfinite(self.d_scale)):
            raise DataValidationError(f"d_scale must be a positive real, got {self.d_scale}")

    def to_dict(self) -> dict:
        return {"n_scale": self.n_scale, "d_scale": self.d_scale}


IDENTITY_NORMALIZATION = Normalization(1.0, 1.0)


@dataclass(frozen=True)
class Observation:
    """One measured loss point.

    Attributes:
        model_id: String tag naming the model.
        n_params: Raw parameter count (positive).
        d_tokens: Raw token count (positive).
        loss: Measured positive test loss.
        x_level: Optional perturbation scalar (SNR in dB, learning rate,
            or bit width).
        source_tag: Optional free-form tag (e.g. dataset name).
    """

    model_id: str
    n_params: float
    d_tokens: float
    loss: float
    x_level: float | None = None
    source_tag: str | None = None

    def __post_init__(self) -> None:
        problems = observation_problems(
            self.model_id, self.n_params, self.d_tokens, self.loss, self.x_level
        )
        if problems:
            raise DataValidationError("; ".join(problems))

    def key(self) -> tuple:
        """Identity key; two observations may not share it within a set."""
        return (self.model_id, self.d_tokens, self.x_level, self.source_tag)


def observation_problems(
    model_id: str,
    n_params: float,
    d_tokens: float,
    loss: float,
    x_level: float | None,
) -> list[str]:
    """Return human-readable invariant violations (empty list if valid)."""
    problems = []
    if not model_id:
        problems.append("model_id is empty")
    if not (math.isfinite(n_params) and n_params > 0):
        problems.append(f"n_params must be a positive real, got {n_params}")
    if not (math.isfinite(d_tokens) and d_tokens > 0):
        problems.append(f"d_tokens must be a positive real, got {d_tokens}")
    if not (math.isfinite(loss) and loss > 0):
        problems.append(f"loss must be a positive real, got {loss}")
    if x_level is not None and not math.isfinite(x_level):
        problems.append(f"x_level must be finite when present, got {x_level}")
    return problems


@dataclass(frozen=True)
class ObservationSet:
    """An ordered, immutable collection of observations.

    Order is the load order; all grouping and splitting is deterministic
    given this order. `level_key` names the field that defines
    perturbation groups ("x_level" or "source_tag").
    """

    observations: tuple[Observation, ...]
    normalization: Normalization = field(default_factory=Normalization)
    level_key: str = "x_level"

    def __post_init__(self) -> None:
        if self.level_key not in ("x_level", "source_tag"):
            raise DataValidationError(
                f"level_key must be 'x_level' or 'source_tag', got {self.level_key!r}"
            )
        seen: dict[tuple, int] = {}
        for i, obs in enumerate(self.observations):
            k = obs.key()
            if k in seen:
                raise DataValidationError(
                    f"duplicate observation key {k} at positions {seen[k]} and {i}"
                )
            seen[k] = i

    def __len__(self) -> int:
        return len(self.observations)

    def __iter__(self) -> Iterator[Observation]:
        return iter(self.observations)

    def with_observations(self, observations: Sequence[Observation]) -> "ObservationSet":
        """Same normalization and level key, different rows."""
        return replace(self, observations=tuple(observations))

    # -- array views (raw units) ------------------------------------
    def n_raw(self) -> np.ndarray:
        return np.array([o.n_params for o in self.observations], dtype=float)

    def d_raw(self) -> np.ndarray:
        return np.array([o.d_tokens for o in self.observations], dtype=float)

    def losses(self) -> np.ndarray:
        return np.array([o.loss for o in self.observations], dtype=float)

    def x_values(self) -> np.ndarray:
        """X levels with NaN where missing."""
        return np.array(
            [o.x_level if o.x_level is not None else np.nan for o in self.observations],
            dtype=float,
        )

    # -- array views (normalized units, as laws consume them) --------
    def n_norm(self) -> np.ndarray:
        return self.n_raw() / self.normalization.n_scale

    def d_norm(self) -> np.ndarray:
        return self.d_raw() / self.normalization.d_scale

    def level_of(self, obs: Observation):
        level = obs.x_level if self.level_key == "x_level" else obs.source_tag
        if level is None:
            raise DataValidationError(
                f"observation {obs.key()} has no {self.level_key}; cannot resolve its level"
            )
        return level


def load_observations(
    path: str | Path,
    format: str | None = None,
    level_key: str = "x_level",
    normalization: Normalization | None = None,
) -> ObservationSet:
    """Load observations from a CSV or JSON file.

    CSV: UTF-8, header row, columns model_id, n_params, d_tokens, loss
    plus optional x_level and source_tag; scientific notation accepted.
    JSON: array of objects with the same keys.

    Args:
        path: Input file.
        format: "csv" or "json"; inferred from the extension when None.
        level_key: Field defining perturbation groups.
        normalization: Divisors for N and D; defaults to 1e9 for both.

    Raises:
        DataValidationError: missing file or column, non-numeric cell,
            non-positive N/D/loss, duplicate key, or a model_id with
            more than one n_params. Row numbers are
            1-based data rows (header excluded) for CSV, array indices
            for JSON.
    """
    path = Path(path)
    if not path.exists():
        raise DataValidationError(f"no such file: {path}")
    if format is None:
        format = "json" if path.suffix.lower() == ".json" else "csv"
    if format not in ("csv", "json"):
        raise DataValidationError(f"format must be 'csv' or 'json', got {format!r}")

    if format == "csv":
        rows = _read_csv_rows(path)
    else:
        rows = _read_json_rows(path)

    observations = []
    problems = []
    sizes: dict[str, dict[float, list[int]]] = {}
    for row_no, raw in rows:
        obs, errs = _parse_row(raw, row_no)
        if errs:
            problems.extend(errs)
        else:
            observations.append(obs)
            sizes.setdefault(obs.model_id, {}).setdefault(obs.n_params, []).append(row_no)
    if problems:
        raise DataValidationError(f"{path}: " + "; ".join(problems))
    # Token splits key on model_id, model and joint splits on n_params;
    # they agree only if each model has one size.
    problems = [
        f"model_id {model_id!r} has more than one n_params: " + ", ".join(
            f"{n!r} (rows {', '.join(map(str, row_nos))})" for n, row_nos in by_n.items()
        )
        for model_id, by_n in sizes.items() if len(by_n) > 1
    ]
    if problems:
        raise DataValidationError(f"{path}: " + "; ".join(problems))

    norm = normalization if normalization is not None else Normalization()
    return ObservationSet(tuple(observations), normalization=norm, level_key=level_key)


def _read_csv_rows(path: Path) -> list[tuple[int, dict]]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        missing = [c for c in REQUIRED_COLUMNS if c not in header]
        if missing:
            raise DataValidationError(f"{path}: missing required column(s) {', '.join(missing)}")
        return [(i, row) for i, row in enumerate(reader, start=1)]


def _read_json_rows(path: Path) -> list[tuple[int, dict]]:
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataValidationError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(payload, list):
        raise DataValidationError(f"{path}: expected a JSON array of objects")
    rows = []
    for i, item in enumerate(payload):
        if not isinstance(item, dict):
            raise DataValidationError(f"{path}: element {i} is not an object")
        missing = [c for c in REQUIRED_COLUMNS if c not in item]
        if missing:
            raise DataValidationError(
                f"{path}: element {i} missing required key(s) {', '.join(missing)}"
            )
        rows.append((i, item))
    return rows


def _parse_row(raw: dict, row_no: int) -> tuple[Observation | None, list[str]]:
    def cell(name):
        value = raw.get(name)
        if value is None:
            return None
        if isinstance(value, str):
            value = value.strip()
            return value if value != "" else None
        return value

    errs = []
    model_id = cell("model_id")
    if model_id is None:
        errs.append(f"row {row_no}: model_id is empty")
        model_id = ""
    else:
        model_id = str(model_id)

    def number(name, required):
        value = cell(name)
        if value is None:
            if required:
                errs.append(f"row {row_no}: {name} is empty")
            return None
        try:
            return float(value)
        except (TypeError, ValueError):
            errs.append(f"row {row_no}: {name}={value!r} is not numeric")
            return None

    n_params = number("n_params", required=True)
    d_tokens = number("d_tokens", required=True)
    loss = number("loss", required=True)
    x_level = number("x_level", required=False)
    source_tag = cell("source_tag")
    source_tag = str(source_tag) if source_tag is not None else None

    if errs:
        return None, errs
    invariant_errs = observation_problems(model_id, n_params, d_tokens, loss, x_level)
    if invariant_errs:
        return None, [f"row {row_no}: {msg}" for msg in invariant_errs]
    return (
        Observation(model_id, n_params, d_tokens, loss, x_level, source_tag),
        [],
    )


def group_by_level(oset: ObservationSet) -> list[tuple[object, ObservationSet]]:
    """Partition a set by its level key, levels sorted ascending.

    Each group preserves the parent's observation order; the union of
    the groups equals the input.

    Raises:
        DataValidationError: an observation has no resolvable level.
    """
    buckets: dict = {}
    for obs in oset:
        level = oset.level_of(obs)
        buckets.setdefault(level, []).append(obs)
    return [
        (level, oset.with_observations(buckets[level])) for level in sorted(buckets.keys())
    ]


def distinct_axis_values(oset: ObservationSet, axis: str) -> list[float]:
    """Strictly increasing unique raw values of N or D.

    Args:
        oset: Nonempty observation set.
        axis: "N" for parameter counts, "D" for token counts.
    """
    if len(oset) == 0:
        raise DataValidationError("distinct_axis_values on an empty set")
    axis = axis.upper()
    if axis == "N":
        values = {o.n_params for o in oset}
    elif axis == "D":
        values = {o.d_tokens for o in oset}
    else:
        raise DataValidationError(f"axis must be 'N' or 'D', got {axis!r}")
    return sorted(values)
