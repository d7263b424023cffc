"""SNR-calibrated additive Gaussian perturbation of flat weight arrays.

The noise variance is set from the mean squared weight (the signal
power) and a target signal-to-noise ratio in decibels:

    sigma^2 = P_w / 10^(SNR_dB / 10),   P_w = mean(w^2)

Noise draws come from numpy's Generator with the PCG64 bit generator
(ziggurat standard normal), so a seed fully determines the output
within this implementation. float32 inputs are perturbed in double
precision and rounded once at the end.

Every pass streams the weights through fixed-size leaves of `_LEAF`
elements: a leaf is widened to float64, checked for finiteness,
squared, noised and written before the next one is read. Each pass
allocates its few leaf-sized buffers once and reuses them for every
leaf, so working memory and page faults do not grow with the vector
length. Buffers belong to the call, so concurrent calls share none.
Leaf sums are combined in the tree numpy's pairwise summation builds
over the whole array, and normal draws do not depend on how they are
chunked, so powers, noise, outputs and SNRs are bit-identical to
whole-array numpy arithmetic. The in-memory functions (`signal_power`,
`inject`, `inject_segmented`, `measure_snr`) and the file functions
(`perturb_wvec`, `measure_wvec`) share this kernel; the file functions
never hold more than a leaf of the vector. Perturbation makes two
passes: the first computes every segment's power and validates, so no
output exists when an input is rejected; the second draws the noise
and writes. Segments run serially, each with its own stream.

Weight files use a small binary container (magic "WVEC"): the 4 magic
bytes, a u8 version (1), a u8 dtype code (0 = f32, 1 = f64), a
little-endian u64 element count, then the raw little-endian IEEE-754
values. A one-value-per-line text form is supported for small vectors.
"""

from __future__ import annotations

import errno
import math
import os
import stat
import struct
import sys
from contextlib import ExitStack, contextmanager
from dataclasses import asdict, dataclass
from itertools import islice
from pathlib import Path
from typing import BinaryIO, Callable, Iterator, Sequence, TextIO

import numpy as np

from .errors import DataValidationError

WVEC_MAGIC = b"WVEC"
WVEC_VERSION = 1
_DTYPE_CODES = {"f32": 0, "f64": 1}
_CODE_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_HEADER = struct.Struct("<4sBBQ")

# Elements per leaf: 256 KB as float64, so a leaf's few temporaries fit
# in a 2 MB L2 cache. On a 2-vCPU Xeon with 2 MB L2 per core, 1 << 15
# ran perturb about 1.8x and measure about 4x faster than 1 << 18 on a
# 20M-value file. Must be at least numpy's pairwise-summation block of
# 128 elements for leaf sums to match.
_LEAF = 1 << 15

# A reader returns the next m (at most `_LEAF`) values of a vector as a
# view that the next read may overwrite; a writer consumes the next
# output values before it returns, as the kernel reuses their buffer.
_Reader = Callable[[int], np.ndarray]
_Writer = Callable[[np.ndarray], object]


@dataclass(frozen=True)
class WeightVector:
    """A flat, finite float32 or float64 array of weights."""

    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.values)
        if arr.dtype not in (np.float32, np.float64):
            raise DataValidationError(
                f"weights must be float32 or float64, got {arr.dtype}"
            )
        arr = np.ascontiguousarray(arr).reshape(-1)
        if arr.size < 1:
            raise DataValidationError("weight vector must hold at least one element")
        if not np.all(np.isfinite(arr)):
            raise DataValidationError("weight vector contains non-finite values")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def count(self) -> int:
        return int(self.values.size)

    @property
    def dtype_code(self) -> str:
        return "f32" if self.values.dtype == np.float32 else "f64"


@dataclass(frozen=True)
class PerturbReport:
    """Bookkeeping for one injection.

    `sigma2` is exactly noise_sigma2(signal_power, target_snr_db).
    `empirical_snr_db` is measured against the noise actually drawn, in
    double precision, before any float32 rounding of the output.
    """

    target_snr_db: float
    signal_power: float
    sigma2: float
    empirical_snr_db: float
    seed: int
    count: int
    power_mode: str = "global"

    def to_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------
# Leaf kernel
# ---------------------------------------------------------------------

def _pairwise(count: int, leaf: Callable[[int], np.ndarray]) -> np.ndarray:
    """Sum of ``leaf(m)`` over consecutive leaves covering `count` values.

    Splits as numpy's pairwise summation does (the left part is
    count // 2 rounded down to a multiple of 8) until a part fits in
    `_LEAF`, and visits the parts in ascending order. When ``leaf(m)``
    returns ``np.add.reduce`` of the next m terms, the result equals
    ``np.add.reduce`` of all `count` terms bit for bit.
    """
    if count <= _LEAF:
        return leaf(count)
    half = count // 2
    half -= half % 8
    return _pairwise(half, leaf) + _pairwise(count - half, leaf)


def _sum_squares(values: np.ndarray, source: np.ndarray, where: str, out: np.ndarray) -> float:
    """Sum of squares of a float64 leaf computed from `source`, squared
    into `out` (which may be `values`), rejecting non-finite source values.

    The sum is finite only if every term is, and a term is finite only
    if its source values are, so the element-wise check runs only on a
    leaf whose sum is not.
    """
    total = np.add.reduce(np.square(values, out=out))
    if not np.isfinite(total) and not np.isfinite(source).all():
        raise DataValidationError(f"{where}weight vector contains non-finite values")
    return total


def _mean_square(read: _Reader, count: int, squares: np.ndarray, where: str = "") -> float:
    def leaf(m: int) -> np.float64:
        values, wide = read(m), squares[:m]
        # Widened by a copy: a mixed-dtype ufunc allocates on every call.
        np.copyto(wide, values)
        return _sum_squares(wide, values, where, wide)

    return float(_pairwise(count, leaf) / count)


def _array_reader(values: np.ndarray) -> _Reader:
    offset = 0

    def read(m: int) -> np.ndarray:
        nonlocal offset
        offset += m
        return values[offset - m:offset]

    return read


def _calibrate(
    read: _Reader, count: int, segments: Sequence[int] | None, snr_db: float, where: str
) -> list[tuple[int, float, float]]:
    """Pass 1: (length, signal power, sigma2) per segment, or for the
    whole vector when `segments` is None; raises on bad input."""
    lengths = [count] if segments is None else [int(v) for v in segments]
    if any(v < 1 for v in lengths) or sum(lengths) != count:
        raise DataValidationError(
            f"segment lengths must be positive and sum to {count}, got {lengths}"
        )
    squares = np.empty(_LEAF)
    powers = [_mean_square(read, length, squares, where) for length in lengths]
    calibration = []
    for index, (length, p_w) in enumerate(zip(lengths, powers)):
        if p_w == 0.0:
            raise DataValidationError(
                "zero signal power; SNR-calibrated injection undefined" if segments is None
                else f"segment {index} has zero signal power"
            )
        calibration.append((length, p_w, noise_sigma2(p_w, snr_db)))
    return calibration


def _inject(
    read: _Reader,
    write: _Writer,
    dtype: np.dtype,
    calibration: list[tuple[int, float, float]],
    snr_db: float,
    seed: int,
    segmented: bool,
) -> list[PerturbReport]:
    """Pass 2: draw each segment's noise, write the perturbed values."""
    noise_buf, wide_buf = np.empty(_LEAF), np.empty(_LEAF)
    out_buf, finite_buf = np.empty(_LEAF, dtype), np.empty(_LEAF, bool)
    reports = []
    for index, (length, p_w, sigma2) in enumerate(calibration):
        if segmented:
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))
        else:
            rng = np.random.default_rng(seed)
        scale = math.sqrt(sigma2)

        def leaf(m: int) -> np.float64:
            noise, wide, values = noise_buf[:m], wide_buf[:m], out_buf[:m]
            rng.standard_normal(out=noise)
            noise *= scale
            np.copyto(wide, read(m))
            wide += noise
            np.copyto(values, wide)  # rounds once to `dtype`
            if not np.isfinite(values, out=finite_buf[:m]).all():
                raise DataValidationError(f"snr_db {snr_db} overflows the {dtype.name} weights")
            write(values)
            return np.add.reduce(np.square(noise, out=noise))

        with np.errstate(over="ignore"):  # overflows are rejected as non-finite values
            p_noise = float(_pairwise(length, leaf) / length)
        if not 0.0 < p_noise < math.inf:
            raise DataValidationError(f"snr_db {snr_db} gives a noise power of {p_noise}")
        reports.append(
            PerturbReport(
                target_snr_db=float(snr_db),
                signal_power=p_w,
                sigma2=sigma2,
                empirical_snr_db=10.0 * math.log10(p_w / p_noise),
                seed=int(seed),
                count=length,
                power_mode=f"segment:{index}" if segmented else "global",
            )
        )
    return reports


def _perturb_array(
    w: WeightVector, segments: Sequence[int] | None, snr_db: float, seed: int
) -> tuple[WeightVector, list[PerturbReport]]:
    calibration = _calibrate(_array_reader(w.values), w.count, segments, snr_db, "")
    out = np.empty_like(w.values)
    slot = _array_reader(out)  # the next m values of `out`, as a writable view
    reports = _inject(_array_reader(w.values), lambda values: np.copyto(slot(values.size), values),
                      w.values.dtype, calibration, snr_db, seed, segments is not None)
    return WeightVector(out), reports


def _snr_db(
    read_original: _Reader,
    read_perturbed: _Reader,
    count: int,
    count_perturbed: int,
    where_original: str = "",
    where_perturbed: str = "",
) -> float:
    if count != count_perturbed:
        raise DataValidationError(f"vector lengths differ: {count} vs {count_perturbed}")

    wide_buf, diff_buf = np.empty(_LEAF), np.empty(_LEAF)

    def leaf(m: int) -> np.ndarray:
        original, perturbed = read_original(m), read_perturbed(m)
        wide, diff = wide_buf[:m], diff_buf[:m]
        np.copyto(wide, original)
        p_sig = _sum_squares(wide, original, where_original, diff)
        np.copyto(diff, perturbed)
        diff -= wide
        return np.array([p_sig, _sum_squares(diff, perturbed, where_perturbed, diff)])

    p_sig, p_diff = (float(v) for v in _pairwise(count, leaf) / count)
    if p_sig == 0.0:
        raise DataValidationError("zero signal power; SNR undefined")
    if p_diff == 0.0:
        raise DataValidationError("vectors are identical; SNR is infinite")
    return 10.0 * math.log10(p_sig / p_diff)


# ---------------------------------------------------------------------
# In-memory API
# ---------------------------------------------------------------------

def signal_power(w: WeightVector) -> float:
    """Mean squared weight, accumulated in double precision."""
    return _mean_square(_array_reader(w.values), w.count, np.empty(_LEAF))


def noise_sigma2(p_w: float, snr_db: float) -> float:
    """Noise variance hitting the target SNR for a given signal power; an
    snr_db putting 10^(snr_db/10) or the variance out of range is rejected."""
    if not (math.isfinite(p_w) and p_w >= 0):
        raise DataValidationError(f"signal power must be a non-negative real, got {p_w}")
    if not math.isfinite(snr_db):
        raise DataValidationError(f"snr_db must be finite, got {snr_db}")
    try:
        sigma2 = p_w / 10.0 ** (snr_db / 10.0)
    except (OverflowError, ZeroDivisionError):  # 10^(snr_db/10) overflows or underflows to 0
        sigma2 = math.nan
    if not math.isfinite(sigma2):
        raise DataValidationError(f"snr_db {snr_db} puts the noise variance out of range")
    return sigma2


def inject(
    w: WeightVector, snr_db: float, seed: int
) -> tuple[WeightVector, PerturbReport]:
    """Add zero-mean Gaussian noise calibrated to the target SNR.

    Args:
        w: Weights with nonzero signal power.
        snr_db: Target SNR in decibels (any finite real).
        seed: Seeds the PCG64 stream; same inputs give identical output.

    Returns:
        (perturbed, report): same length and dtype as the input, plus
        the calibration bookkeeping.

    Raises:
        DataValidationError: zero signal power (SNR undefined).
    """
    out, [report] = _perturb_array(w, None, snr_db, seed)
    return out, report


def inject_segmented(
    w: WeightVector, segment_lengths: Sequence[int], snr_db: float, seed: int
) -> tuple[WeightVector, list[PerturbReport]]:
    """Per-segment calibration for multi-tensor files.

    Each segment gets its own signal power and noise variance. Segments
    run serially, each drawing from an independent stream seeded by
    SeedSequence(seed, spawn_key=(i,)) for segment index i, so a
    segment's noise depends only on the seed, its index and its length.
    """
    return _perturb_array(w, segment_lengths, snr_db, seed)


def measure_snr(original: WeightVector, perturbed: WeightVector) -> float:
    """Empirical SNR in dB between a vector and its perturbed copy.

    Raises:
        DataValidationError: length mismatch, zero signal power, or
            identical vectors (the SNR would be infinite).
    """
    return _snr_db(_array_reader(original.values), _array_reader(perturbed.values),
                   original.count, perturbed.count)


# ---------------------------------------------------------------------
# WVEC container and text form
# ---------------------------------------------------------------------

@contextmanager
def _open_wvec(path: str | Path) -> Iterator[tuple[BinaryIO, int, int]]:
    """Open a WVEC file and check its header against the file size
    before any payload is read. Yields (file, dtype code, count) with
    the file positioned at the payload."""
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise DataValidationError(f"{path}: truncated header")
        magic, version, dtype_code, count = _HEADER.unpack(header)
        if magic != WVEC_MAGIC:
            raise DataValidationError(f"{path}: bad magic {magic!r}")
        if version != WVEC_VERSION:
            raise DataValidationError(f"{path}: unsupported version {version}")
        if dtype_code not in _CODE_DTYPES:
            raise DataValidationError(f"{path}: unknown dtype code {dtype_code}")
        expected = _HEADER.size + count * _CODE_DTYPES[dtype_code].itemsize
        found = os.fstat(fh.fileno()).st_size
        if found != expected:
            raise DataValidationError(
                f"{path}: expected {expected} bytes for {count} elements, found {found}"
            )
        if count < 1:
            raise DataValidationError(f"{path}: weight vector must hold at least one element")
        yield fh, dtype_code, count


def _file_reader(fh: BinaryIO, dtype_code: int, path: str | Path) -> _Reader:
    """_Reader over the payload from its start, reading every leaf into
    one buffer."""
    buf = np.empty(_LEAF, _CODE_DTYPES[dtype_code])
    fh.seek(_HEADER.size)

    def read(m: int) -> np.ndarray:
        values = buf[:m]
        if fh.readinto(values) != values.nbytes:
            raise DataValidationError(f"{path}: payload ended early")
        return values

    return read


def _resolve(path: str | Path) -> Path:
    """`path` with every symlink followed; a symlink loop is an OSError naming `path`."""
    try:
        os.stat(path)  # resolve() raises RuntimeError on a loop, or from Python 3.13 nothing
    except OSError as exc:
        if exc.errno == errno.ELOOP:
            raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    return Path(path).resolve()


@contextmanager
def _writing(*paths: str | Path) -> Iterator[list[TextIO]]:
    """UTF-8 text files for `paths`, all opened before the block runs
    (binary writes go to `.buffer`); the package's one way to write a
    file. A symlink is followed to its final target and stays a link. A
    directory is refused before any file is made. The file open as
    standard output (such as `/dev/stdout`) is written through
    `sys.stdout`, after what the process printed before. An existing
    FIFO or device is written in place. Any other target gets a new file
    beside it, renamed over it (keeping a replaced file's permission
    bits) when the block returns and deleted when it raises, so it is
    never left half-written and may be a file the block reads. Errors
    name each path as given."""
    targets = [_resolve(path) for path in paths]
    for path in filter(os.path.isdir, paths):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), os.fspath(path))
    renames = []
    try:
        with ExitStack() as stack:
            files = []
            for path, target in zip(paths, targets):
                status = os.stat(path) if os.path.exists(path) else None
                if status is not None and _is_stdout(status):
                    sys.stdout.flush()
                    files.append(sys.stdout)
                    continue
                mode = None if status is None else status.st_mode
                new = None if mode is not None and not stat.S_ISREG(mode) else \
                    target.with_name(f".{target.name}.{os.urandom(4).hex()}.tmp")
                try:
                    fh = open(new or path, "x" if new else "w", encoding="utf-8", newline="")
                except OSError as exc:
                    raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
                files.append(stack.enter_context(fh))
                if new is not None:
                    renames.append((new, target))
                    if mode is not None:
                        os.fchmod(fh.fileno(), stat.S_IMODE(mode))
            yield files
        for new, target in renames:
            os.replace(new, target)
    except BaseException:
        for new, _ in renames:
            new.unlink(missing_ok=True)
        raise


def _is_stdout(status: os.stat_result) -> bool:
    """Whether `status` is that of the file open as standard output."""
    try:
        return os.path.samestat(status, os.fstat(sys.stdout.fileno()))
    except (AttributeError, OSError, ValueError):  # no stdout, or one without a descriptor
        return False


def perturb_wvec(
    src: str | Path,
    dst: str | Path,
    snr_db: float,
    seed: int,
    segments: Sequence[int] | None = None,
) -> PerturbReport | list[PerturbReport]:
    """Stream a WVEC file through :func:`inject` (or, with `segments`,
    :func:`inject_segmented`) into another WVEC file.

    Output bytes and reports equal those of the in-memory functions on
    the same vector. Memory use does not grow with the file size. Every
    input check, including finiteness of each value, runs before the
    output is created; `dst` is written by :func:`_writing`, which
    replaces a regular file at the end, so `dst` may be `src`.

    Returns:
        The report, or one report per segment when `segments` is given.
    """
    with _open_wvec(src) as (fh, dtype_code, count):
        calibration = _calibrate(_file_reader(fh, dtype_code, src), count, segments, snr_db,
                                 f"{src}: ")
        with _writing(dst) as [out]:
            out.buffer.write(_HEADER.pack(WVEC_MAGIC, WVEC_VERSION, dtype_code, count))
            reports = _inject(_file_reader(fh, dtype_code, src), out.buffer.write,
                              _CODE_DTYPES[dtype_code], calibration, snr_db, seed,
                              segments is not None)
    return reports[0] if segments is None else reports


def measure_wvec(original: str | Path, perturbed: str | Path) -> tuple[float, int]:
    """:func:`measure_snr` between two WVEC files, streamed leaf by leaf.

    Returns:
        (empirical SNR in dB, element count).
    """
    with _open_wvec(original) as (fh_o, code_o, count), \
            _open_wvec(perturbed) as (fh_p, code_p, count_p):
        snr_db = _snr_db(_file_reader(fh_o, code_o, original),
                         _file_reader(fh_p, code_p, perturbed), count, count_p,
                         f"{original}: ", f"{perturbed}: ")
    return snr_db, count


def write_wvec(path: str | Path, w: WeightVector) -> None:
    """Write the binary weight container (bit-exact, little endian) by :func:`_writing`."""
    with _writing(path) as [fh]:
        _write_wvec(fh.buffer, w)


def _write_wvec(fh: BinaryIO, w: WeightVector) -> None:
    code = _DTYPE_CODES[w.dtype_code]
    fh.write(_HEADER.pack(WVEC_MAGIC, WVEC_VERSION, code, w.count))
    fh.write(np.ascontiguousarray(w.values, dtype=_CODE_DTYPES[code]))


def read_wvec(path: str | Path) -> WeightVector:
    """Read the binary weight container, validating the header strictly."""
    with _open_wvec(path) as (fh, dtype_code, count):
        return WeightVector(np.fromfile(fh, dtype=_CODE_DTYPES[dtype_code], count=count))


def write_weights_text(path: str | Path, w: WeightVector) -> None:
    """One value per line; full-precision reprs round-trip exactly.

    Text is built `_LEAF` values at a time and written by :func:`_writing`."""
    with _writing(path) as [fh]:
        _write_weights_text(fh, w)


def _write_weights_text(fh: TextIO, w: WeightVector) -> None:
    for start in range(0, w.count, _LEAF):
        fh.write("\n".join(map(repr, w.values[start:start + _LEAF].tolist())))
        fh.write("\n")


def read_weights_text(path: str | Path, dtype_code: str = "f64") -> WeightVector:
    """Weights from text, one value per line (blank lines skipped); a
    value that is not numeric, or not finite in `dtype_code`, is an
    error naming the file and its line."""
    if dtype_code not in _DTYPE_CODES:
        raise DataValidationError(f"dtype must be 'f32' or 'f64', got {dtype_code!r}")
    values = []
    for line_no, line in _value_lines(path):
        try:
            values.append(float(line))
        except ValueError:
            raise DataValidationError(f"{path}: line {line_no}: {line!r} is not numeric") from None
    if not values:
        raise DataValidationError(f"{path}: no values found")
    dtype = np.float32 if dtype_code == "f32" else np.float64
    with np.errstate(over="ignore"):  # beyond the float32 range becomes inf, refused below
        values = np.asarray(values, dtype=dtype)
    finite = np.isfinite(values)
    if not finite.all():
        line_no, line = next(islice(_value_lines(path), int(np.argmin(finite)), None))
        raise DataValidationError(f"{path}: line {line_no}: {line!r} is not a finite "
                                  f"{dtype_code} value")
    return WeightVector(values)


def _value_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """(line number, stripped text) of each non-blank line of a text file."""
    try:
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.strip()
                if line:
                    yield line_no, line
    except UnicodeDecodeError as exc:  # raised while iterating over the lines
        raise DataValidationError(f"{path}: not UTF-8 text ({exc})") from None
