"""Tabular loss observations: loading, validation, normalization, grouping.

An observation is one measured test loss keyed by (model id, parameter
count N, token count D, optional perturbation level X). Sets of
observations are immutable after construction, are stored as numpy
columns, and carry the normalization (divisors for N and D) that every
downstream fit records and replays at prediction time.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass
from itertools import compress
from operator import itemgetter
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
        return asdict(self)


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
    if not (math.isfinite(_float(n_params)) and n_params > 0):
        problems.append(f"n_params must be a positive real, got {n_params}")
    if not (math.isfinite(_float(d_tokens)) and d_tokens > 0):
        problems.append(f"d_tokens must be a positive real, got {d_tokens}")
    if not (math.isfinite(_float(loss)) and loss > 0):
        problems.append(f"loss must be a positive real, got {loss}")
    if x_level is not None and not math.isfinite(_float(x_level)):
        problems.append(f"x_level must be finite when present, got {x_level}")
    return problems


def _codes(values: Sequence) -> tuple[np.ndarray, tuple]:
    """Integer code per value, in order of first appearance, and the
    distinct values the codes index."""
    distinct = tuple(dict.fromkeys(values))
    index = {v: i for i, v in enumerate(distinct)}
    return np.fromiter(map(index.__getitem__, values), dtype=np.intp, count=len(values)), distinct


def _value_codes(values: np.ndarray) -> np.ndarray:
    """Dense integer codes of a float column; NaNs share one code."""
    return np.unique(values, return_inverse=True)[1].ravel()


class ObservationSet:
    """An ordered, immutable collection of observations, stored as columns.

    Order is the load order; all grouping and splitting is deterministic
    given this order. `level_key` names the field that defines
    perturbation groups ("x_level" or "source_tag").

    The columns are `n_params`, `d_tokens`, `loss` and `x_level` (NaN
    where absent) as float64 arrays, plus `model_id` and `source_tag`
    as integer codes into tuples of their distinct values. `observations`
    is a row view of `Observation` objects, built on first use and
    cached; a set built from observations keeps the given objects.
    Construction checks that the normalization takes every N and D to a
    positive finite float, that each model_id has one n_params and that
    no two rows share a key. Subsets (`subset`,
    splits, level groups) are masks of a checked set and are not checked
    again.
    """

    __slots__ = ("_normalization", "_level_key", "_n", "_d", "_loss", "_x",
                 "_model", "_model_ids", "_tag", "_tags", "_rows")

    def __init__(
        self,
        observations: Sequence[Observation],
        normalization: Normalization | None = None,
        level_key: str = "x_level",
    ) -> None:
        rows = tuple(observations)
        model, model_ids = _codes([o.model_id for o in rows])
        tag, tags = _codes([o.source_tag for o in rows])
        self._assign(
            normalization, level_key,
            np.array([o.n_params for o in rows], dtype=float),
            np.array([o.d_tokens for o in rows], dtype=float),
            np.array([o.loss for o in rows], dtype=float),
            np.array([np.nan if o.x_level is None else o.x_level for o in rows], dtype=float),
            model, model_ids, tag, tags, rows,
        )
        self._check("", 0, "position")

    def _assign(self, normalization, level_key, n, d, loss, x,
                model, model_ids, tag, tags, rows) -> None:
        if level_key not in ("x_level", "source_tag"):
            raise DataValidationError(
                f"level_key must be 'x_level' or 'source_tag', got {level_key!r}"
            )
        for column in (n, d, loss, x, model, tag):
            column.flags.writeable = False
        self._normalization = normalization if normalization is not None else Normalization()
        self._level_key = level_key
        self._n, self._d, self._loss, self._x = n, d, loss, x
        self._model, self._model_ids = model, model_ids
        self._tag, self._tags = tag, tags
        self._rows = rows

    @property
    def normalization(self) -> Normalization:
        return self._normalization

    @property
    def level_key(self) -> str:
        return self._level_key

    def _check(self, where: str, first_no: int, unit: str) -> None:
        """The set's construction checks. Errors start with `where` and name
        rows as `unit`s numbered from `first_no`."""
        self._check_scaled(where, first_no, unit)
        self._check_sizes(where, first_no, unit + "s")
        repeat = self._first_repeated_key()
        if repeat is not None:
            i, j = (first_no + r for r in repeat)
            raise DataValidationError(
                f"{where}{unit} {j}: duplicate observation key "
                f"{self.observations[repeat[1]].key()}, first at {unit} {i}")

    def _check_scaled(self, where: str, first_no: int, unit: str) -> None:
        """Refuse a normalization that takes a raw N or D to a float that is
        not positive and finite, where no law can be evaluated. The first
        such row is named as a `unit` numbered from `first_no`."""
        for column, raw, name in (("n_params", self._n, "n_scale"),
                                  ("d_tokens", self._d, "d_scale")):
            scale = getattr(self._normalization, name)
            with np.errstate(all="ignore"):
                scaled = raw / scale
            ok = np.isfinite(scaled) & (scaled > 0)
            if not ok.all():
                i = int(np.argmin(ok))
                raise DataValidationError(
                    f"{where}{unit} {first_no + i}: {column} {float(raw[i])!r} / {name} "
                    f"{scale!r} is not a positive finite float")

    def _check_sizes(self, where: str, first_no: int, unit: str) -> None:
        """Refuse a model_id at more than one n_params: token splits key on
        model_id, model and joint splits on n_params, which agree only if
        each model has one size. Rows are named as `unit`s from `first_no`."""
        width = len(self) + 1  # above every size code
        pairs = np.unique(self._model * width + _value_codes(self._n))
        sizes_per_model = np.bincount(pairs // width)
        problems = [
            f"model_id {self._model_ids[m]!r} has more than one n_params: "
            + _rows_by_size(self._n, np.flatnonzero(self._model == m), first_no, unit)
            for m in np.flatnonzero(sizes_per_model > 1).tolist()
        ]
        if problems:
            raise DataValidationError(where + "; ".join(problems))

    def _first_repeated_key(self) -> tuple[int, int] | None:
        """(i, j) for the first position j whose key position i < j holds
        too, or None when every key is unique."""
        if len(self) < 2:
            return None
        key = np.zeros(len(self), dtype=np.intp)
        for codes in (self._model, _value_codes(self._d), _value_codes(self._x), self._tag):
            key = np.unique(key * (int(codes.max()) + 1) + codes, return_inverse=True)[1].ravel()
        first = np.unique(key, return_index=True)[1][key]
        repeats = np.flatnonzero(first != np.arange(len(key)))
        if not repeats.size:
            return None
        j = int(repeats[0])
        return int(first[j]), j

    @property
    def observations(self) -> tuple[Observation, ...]:
        """Row view, in set order; built on first use and cached."""
        if self._rows is None:
            model_ids, tags = self._model_ids, self._tags
            self._rows = tuple(
                Observation(model_ids[m], n, d, loss, None if math.isnan(x) else x, tags[t])
                for m, n, d, loss, x, t in zip(
                    self._model.tolist(), self._n.tolist(), self._d.tolist(),
                    self._loss.tolist(), self._x.tolist(), self._tag.tolist(),
                )
            )
        return self._rows

    def __len__(self) -> int:
        return len(self._n)

    def __iter__(self) -> Iterator[Observation]:
        return iter(self.observations)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ObservationSet):
            return NotImplemented
        return (
            self.normalization == other.normalization
            and self.level_key == other.level_key
            and len(self) == len(other)
            and all(np.array_equal(a, b, equal_nan=True) for a, b in zip(
                (self._n, self._d, self._loss, self._x),
                (other._n, other._d, other._loss, other._x),
            ))
            and self._texts() == other._texts()
        )

    def __hash__(self) -> int:
        return hash((self.observations, self.normalization, self.level_key))

    def __repr__(self) -> str:
        return (f"ObservationSet(<{len(self)} observations>, "
                f"normalization={self.normalization!r}, level_key={self.level_key!r})")

    def _texts(self) -> tuple[list, list]:
        return ([self._model_ids[m] for m in self._model.tolist()],
                [self._tags[t] for t in self._tag.tolist()])

    def with_observations(self, observations: Sequence[Observation]) -> "ObservationSet":
        """Same normalization and level key, different rows (checked anew)."""
        return ObservationSet(observations, self.normalization, self.level_key)

    def subset(self, mask: np.ndarray) -> "ObservationSet":
        """The rows where the boolean `mask` is true, in this set's order.

        Rows of a checked set have unique keys, so the subset is not
        checked again.
        """
        mask = np.asarray(mask)
        if mask.dtype != bool or mask.shape != (len(self),):
            raise DataValidationError(
                f"subset takes a boolean mask of length {len(self)}, "
                f"got {mask.dtype} of shape {mask.shape}"
            )
        out = ObservationSet.__new__(ObservationSet)
        out._assign(
            self.normalization, self.level_key,
            self._n[mask], self._d[mask], self._loss[mask], self._x[mask],
            self._model[mask], self._model_ids, self._tag[mask], self._tags,
            None if self._rows is None else tuple(compress(self._rows, mask)),
        )
        return out

    # -- array views (raw units) ------------------------------------
    def n_raw(self) -> np.ndarray:
        return self._n.copy()

    def d_raw(self) -> np.ndarray:
        return self._d.copy()

    def losses(self) -> np.ndarray:
        return self._loss.copy()

    def x_values(self) -> np.ndarray:
        """X levels with NaN where missing."""
        return self._x.copy()

    def model_codes(self) -> tuple[np.ndarray, tuple[str, ...]]:
        """Read-only integer code of each row's model_id, and the ids the
        codes index (in order of first appearance in the loaded table)."""
        return self._model, self._model_ids

    # -- array views (normalized units, as laws consume them) --------
    def n_norm(self) -> np.ndarray:
        return self._n / self.normalization.n_scale

    def d_norm(self) -> np.ndarray:
        return self._d / self.normalization.d_scale

    def missing_levels(self) -> np.ndarray:
        """Boolean mask of the rows that have no value under the level key."""
        if self.level_key == "x_level":
            return np.isnan(self._x)
        return np.array([t is None for t in self._tags], dtype=bool)[self._tag]

    def _level_codes(self) -> tuple[np.ndarray, list]:
        """Dense level code per row and the level each code stands for."""
        missing = self.missing_levels()
        if missing.any():
            obs = self.observations[int(np.argmax(missing))]
            raise DataValidationError(
                f"observation {obs.key()} has no {self.level_key}; cannot resolve its level"
            )
        if self.level_key == "x_level":
            first, codes = np.unique(self._x, return_index=True, return_inverse=True)[1:]
            # the first row's value names the level, so -0.0 and 0.0 meet under one
            levels = self._x[first].tolist()
        else:
            present, codes = np.unique(self._tag, return_inverse=True)
            levels = [self._tags[t] for t in present.tolist()]
        return codes.ravel(), levels


def load_observations(
    path: str | Path,
    level_key: str = "x_level",
    normalization: Normalization | None = None,
) -> ObservationSet:
    """Load observations from a CSV or JSON file: JSON when the extension
    is .json (in any case), CSV otherwise.

    CSV: UTF-8 (a byte-order mark is accepted), header row, columns
    model_id, n_params, d_tokens, loss plus optional x_level and
    source_tag; scientific notation accepted. JSON: array of objects
    with the same keys, UTF-8 with or without a byte-order mark.

    The file is read straight into columns and every check runs on whole
    columns: one pass over the cells, then vectorized tests. Messages are
    built only for the rows that fail, so they list every failing row in
    row order.

    Args:
        path: Input file.
        level_key: Field defining perturbation groups.
        normalization: Divisors for N and D; defaults to 1e9 for both.

    Raises:
        DataValidationError: missing file or column, non-numeric cell,
            non-positive N/D/loss, an N or D that `normalization` does
            not take to a positive finite float, duplicate key, or a
            model_id with more than one n_params. Row numbers are
            1-based data rows (header excluded) for CSV, array indices
            for JSON.
    """
    path = Path(path)
    if not path.exists():
        raise DataValidationError(f"no such file: {path}")

    try:
        if path.suffix.lower() == ".json":
            cells, first_row_no = _read_json_cells(path), 0
        else:
            cells, first_row_no = _read_csv_cells(path), 1
    except UnicodeDecodeError as exc:
        raise DataValidationError(f"{path}: not UTF-8 text ({exc})") from None
    rows = len(cells["model_id"])

    n, _ = _number_column(cells["n_params"])
    d, _ = _number_column(cells["d_tokens"])
    loss, _ = _number_column(cells["loss"])
    x, x_present = _number_column(cells.get("x_level", [None] * rows))
    model, model_ids = _text_codes(cells["model_id"])
    tag, tags = _text_codes(cells.get("source_tag", [None] * rows))
    bad = x_present & ~np.isfinite(x)
    for column in (n, d, loss):
        bad |= ~(np.isfinite(column) & (column > 0))
    if None in model_ids:
        bad |= model == model_ids.index(None)
    if bad.any():
        problems = [
            msg
            for i in np.flatnonzero(bad).tolist()
            for msg in _row_problems({k: v[i] for k, v in cells.items()}, first_row_no + i)
        ]
        raise DataValidationError(f"{path}: " + "; ".join(problems))
    out = ObservationSet.__new__(ObservationSet)
    out._assign(normalization, level_key, n, d, loss, x, model, model_ids, tag, tags, None)
    out._check(f"{path}: ", first_row_no, "row")
    return out


def _rows_by_size(n: np.ndarray, rows: np.ndarray, first_no: int, unit: str) -> str:
    by_size: dict[float, list[int]] = {}
    for i in rows.tolist():
        by_size.setdefault(float(n[i]), []).append(first_no + i)
    return ", ".join(
        f"{size!r} ({unit} {', '.join(map(str, nos))})" for size, nos in by_size.items()
    )


def _read_csv_cells(path: Path) -> dict[str, list]:
    """Raw cells of the known columns, one list per column."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        missing = [c for c in REQUIRED_COLUMNS if c not in header]
        if missing:
            raise DataValidationError(f"{path}: missing required column(s) {', '.join(missing)}")
        rows = [row for row in reader if row]  # blank lines are not rows
    width = len(header)
    if min(map(len, rows), default=width) < width:  # absent trailing cells read as empty
        rows = [row + [""] * (width - len(row)) for row in rows]
    where = {name: i for i, name in enumerate(header)}  # a repeated name reads its last column
    return {
        name: list(map(itemgetter(where[name]), rows))
        for name in REQUIRED_COLUMNS + OPTIONAL_COLUMNS if name in where
    }


def _read_json_cells(path: Path) -> dict[str, list]:
    with open(path, encoding="utf-8-sig") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataValidationError(f"{path}: invalid JSON ({exc})") from exc
        except RecursionError:
            raise DataValidationError(f"{path}: JSON nested too deeply") from None
    if not isinstance(payload, list):
        raise DataValidationError(f"{path}: expected a JSON array of objects")
    for i, item in enumerate(payload):
        if not isinstance(item, dict):
            raise DataValidationError(f"{path}: element {i} is not an object")
        missing = [c for c in REQUIRED_COLUMNS if c not in item]
        if missing:
            raise DataValidationError(
                f"{path}: element {i} missing required key(s) {', '.join(missing)}"
            )
    cells = {name: [item.get(name) for item in payload]
             for name in REQUIRED_COLUMNS + OPTIONAL_COLUMNS}
    for name in ("model_id", "source_tag"):  # any JSON value, made hashable text
        cells[name] = [_text(v) for v in cells[name]]
    for name in ("n_params", "d_tokens", "loss", "x_level"):  # a JSON boolean is not a number
        cells[name] = [json.dumps(v) if type(v) is bool else v for v in cells[name]]
    return cells


def _cell(value):
    """A cell with surrounding whitespace removed; None when empty."""
    if isinstance(value, str):
        value = value.strip()
        return value if value != "" else None
    return value


def _text(value) -> str | None:
    value = _cell(value)
    return str(value) if value is not None else None


def _text_codes(cells: list) -> tuple[np.ndarray, tuple]:
    """Codes of a text column as stored (stripped, None when empty)."""
    raw, raw_values = _codes(cells)
    codes, values = _codes([_text(v) for v in raw_values])
    return codes[raw], values


def _number_column(cells: list) -> tuple[np.ndarray, np.ndarray]:
    """Cells as float64 (NaN where empty or not numeric, +-inf where a JSON
    integer is beyond the float range), and the mask of non-empty cells."""
    try:  # fast path: every cell parses; float() ignores surrounding whitespace
        values = np.fromiter(map(float, cells), dtype=float, count=len(cells))
        return values, np.ones(len(cells), dtype=bool)
    except (TypeError, ValueError, OverflowError):
        pass
    values = np.full(len(cells), np.nan)
    present = np.zeros(len(cells), dtype=bool)
    for i, value in enumerate(cells):
        value = _cell(value)
        if value is not None:
            present[i] = True
            try:
                values[i] = _float(value)
            except (TypeError, ValueError):
                pass
    return values, present


def _float(value) -> float:
    """float(value), with an integer beyond the float range read as +-inf,
    as float() reads such a number written as text."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _row_problems(raw: dict, row_no: int) -> list[str]:
    """The messages for one row, in the order the columns are checked."""
    errs = []
    model_id = _cell(raw.get("model_id"))
    if model_id is None:
        errs.append(f"row {row_no}: model_id is empty")
        model_id = ""
    else:
        model_id = str(model_id)

    def number(name, required):
        value = _cell(raw.get(name))
        if value is None:
            if required:
                errs.append(f"row {row_no}: {name} is empty")
            return None
        try:
            return _float(value)
        except (TypeError, ValueError):
            errs.append(f"row {row_no}: {name}={value!r} is not numeric")
            return None

    n_params = number("n_params", required=True)
    d_tokens = number("d_tokens", required=True)
    loss = number("loss", required=True)
    x_level = number("x_level", required=False)
    if errs:
        return errs
    return [
        f"row {row_no}: {msg}"
        for msg in observation_problems(model_id, n_params, d_tokens, loss, x_level)
    ]


def group_by_level(oset: ObservationSet) -> list[tuple[object, ObservationSet]]:
    """Partition a set by its level key, levels sorted ascending.

    Each group preserves the parent's observation order; the union of
    the groups equals the input.

    Raises:
        DataValidationError: an observation has no resolvable level.
    """
    codes, levels = oset._level_codes()
    order = sorted(range(len(levels)), key=levels.__getitem__)
    return [(levels[g], oset.subset(codes == g)) for g in order]


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
        values = oset.n_raw()
    elif axis == "D":
        values = oset.d_raw()
    else:
        raise DataValidationError(f"axis must be 'N' or 'D', got {axis!r}")
    return np.unique(values).tolist()
