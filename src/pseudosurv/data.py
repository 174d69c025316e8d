"""Censored survival datasets: columnar storage, classification, CSV input and output.

Two observation kinds are supported. Right-censored observations carry an
observed time and an event indicator. Interval observations carry a bracket
[left, right] that contains the event time, with ``right = inf`` meaning
right-censored, ``left = 0`` (with finite right) meaning left-censored, and
``left == right`` meaning an exactly observed event. A `Dataset` holds one
kind as validated arrays plus an optional covariate matrix aligned row by
row; the record classes check and classify a single observation.
"""

from __future__ import annotations

import csv
import itertools
import math
import warnings
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import EmptyInput, MalformedInterval, ParseError, PseudosurvError

LEFT_CENSORED = "left-censored"
STRICT_INTERVAL = "strictly-interval"
RIGHT_CENSORED = "right-censored"
EXACT = "exact"

# Position in this tuple is the int8 code stored in `Dataset.class_codes`.
INTERVAL_CLASSES = (LEFT_CENSORED, STRICT_INTERVAL, RIGHT_CENSORED, EXACT)
_LEFT_CODE, _STRICT_CODE, _RIGHT_CODE, _EXACT_CODE = range(len(INTERVAL_CLASSES))

KIND_RIGHT = "right-censored"
KIND_INTERVAL = "interval"

_HEADERS = {KIND_RIGHT: ("time", "status"), KIND_INTERVAL: ("left", "right")}
# Rows formatted per write, which bounds the memory save_dataset holds.
_WRITE_ROWS = 1 << 16
# Lines parsed per np.loadtxt call, which bounds the text a loader holds.
_READ_LINES = 1 << 16


@dataclass(frozen=True)
class RightCensoredRecord:
    """One subject observed under right-censoring.

    Parameters
    ----------
    time : float
        Observed time, the minimum of the event and censoring times.
    status : int
        Event indicator, 1 if the event was observed and 0 if censored.
    """

    time: float
    status: int

    def __post_init__(self):
        if not math.isfinite(self.time):
            raise MalformedInterval(f"time must be finite, got {self.time}")
        if self.time < 0:
            raise MalformedInterval(f"time must be nonnegative, got {self.time}")
        if self.status not in (0, 1):
            raise ParseError(f"status must be 0 or 1, got {self.status!r}")


@dataclass(frozen=True)
class IntervalRecord:
    """One subject observed under mixed interval-censoring.

    The bracket [left, right] contains the event time. The censoring class
    is derived from the endpoints and never stored separately.
    """

    left: float
    right: float

    def __post_init__(self):
        if not math.isfinite(self.left):
            raise MalformedInterval(f"left endpoint must be finite, got {self.left}")
        if self.left < 0:
            raise MalformedInterval(f"left endpoint must be nonnegative, got {self.left}")
        if math.isnan(self.right):
            raise MalformedInterval("right endpoint is NaN")
        if self.right < self.left:
            raise MalformedInterval(
                f"right endpoint {self.right} is smaller than left endpoint {self.left}"
            )
        if self.left == self.right == 0.0:
            # Defined (the density degenerates to the hazard at 0) but unusual
            # enough that silent acceptance would hide data errors.
            warnings.warn("exact observation at time 0", stacklevel=2)

    @property
    def censoring_class(self) -> str:
        """The unique censoring class implied by the endpoints."""
        if math.isinf(self.right):
            return RIGHT_CENSORED
        if self.left == self.right:
            return EXACT
        if self.left == 0.0:
            return LEFT_CENSORED
        return STRICT_INTERVAL


def _column(kind, index, doc):
    def get(self):
        self._require(kind)
        return self.columns[index]

    return property(get, doc=doc)


@dataclass(frozen=True, eq=False)
class Dataset:
    """Observations of one kind as validated arrays, with optional covariates.

    Row order is significant: pseudo-observation l must stay aligned with
    covariate row l, so no operation in this package ever reorders rows.
    Construction checks every row as `RightCensoredRecord` or
    `IntervalRecord` would, and raises that record's error for the first
    bad row.

    Parameters
    ----------
    kind : str
        Either ``"right-censored"`` or ``"interval"``.
    columns : pair of array-like
        ``(times, status)`` or ``(left, right)``, kept as read-only copies
        and read through the accessors of those names: float64 ``times``,
        int ``status`` (0 or 1), float64 ``left`` and ``right`` (inf allowed).
    covariates : numpy.ndarray or None
        Matrix with one row per record (a design matrix when an intercept
        column was requested at load time).
    covariate_names : tuple of str or None
        Column names for ``covariates``.
    """

    kind: str
    columns: tuple
    covariates: np.ndarray | None = None
    covariate_names: tuple | None = None

    def __post_init__(self):
        if self.kind not in _HEADERS:
            raise ValueError(f"unknown dataset kind {self.kind!r}")
        first = np.array(self.columns[0], dtype=float)
        raw = np.asarray(self.columns[1])
        second = raw.astype(float)
        if first.ndim != 1 or first.shape != second.shape:
            raise ValueError("the two columns must be 1-D and of equal length")
        bad = ~np.isfinite(first) | (first < 0)
        if self.kind == KIND_RIGHT:
            bad |= (second != 0) & (second != 1)
            if bad.any():
                i = bad.argmax()
                RightCensoredRecord(float(first[i]), raw[i].item())
            second = second.astype(int)
        else:
            bad |= np.isnan(second) | (second < first)
            if bad.any():
                i = bad.argmax()
                IntervalRecord(float(first[i]), float(second[i]))
            at_zero = np.count_nonzero((first == 0.0) & (second == 0.0))
            if at_zero:
                warnings.warn(f"exact observation at time 0 ({at_zero} records)", stacklevel=3)
        first.flags.writeable = second.flags.writeable = False
        object.__setattr__(self, "columns", (first, second))
        if self.covariates is not None:
            cov = np.asarray(self.covariates, dtype=float)
            if cov.ndim != 2:
                raise ValueError("covariates must be a 2-D matrix")
            if cov.shape[0] != self.n:
                raise ValueError(
                    f"covariate rows ({cov.shape[0]}) must equal record count ({self.n})"
                )
            if np.isnan(cov).any():
                raise ValueError("covariates contain missing values")
            object.__setattr__(self, "covariates", cov)
            if self.covariate_names is not None and len(self.covariate_names) != cov.shape[1]:
                raise ValueError("covariate_names length must match covariate columns")

    times = _column(KIND_RIGHT, 0, "Observed times, right-censored datasets only.")
    status = _column(KIND_RIGHT, 1, "Event indicators, right-censored datasets only.")
    left = _column(KIND_INTERVAL, 0, "Left endpoints, interval datasets only.")
    right = _column(KIND_INTERVAL, 1, "Right endpoints (inf allowed), interval datasets only.")

    @property
    def n(self) -> int:
        return self.columns[0].size

    @cached_property
    def class_codes(self) -> np.ndarray:
        """Censoring class per record as an int8 index into
        ``INTERVAL_CLASSES``, interval datasets only. Later assignments
        take precedence, as earlier returns do in
        `IntervalRecord.censoring_class`."""
        self._require(KIND_INTERVAL)
        left, right = self.columns
        codes = np.full(left.shape, _STRICT_CODE, dtype=np.int8)
        codes[left == 0.0] = _LEFT_CODE
        codes[left == right] = _EXACT_CODE
        codes[np.isinf(right)] = _RIGHT_CODE
        return codes

    @property
    def classes(self) -> tuple:
        """Censoring class per record, interval datasets only."""
        return tuple(INTERVAL_CLASSES[c] for c in self.class_codes.tolist())

    @property
    def class_counts(self) -> Counter:
        """Counts per censoring class (interval) or per status (right-censored)."""
        if self.kind == KIND_INTERVAL:
            counts = np.bincount(self.class_codes, minlength=len(INTERVAL_CLASSES))
            return Counter(dict(zip(INTERVAL_CLASSES, counts.tolist())))
        events = int(np.count_nonzero(self.status))
        return Counter({"event": events, "censored": self.n - events})

    def _require(self, kind):
        if self.kind != kind:
            raise ValueError(f"operation requires a {kind} dataset, got {self.kind}")


def right_censored_dataset(times, status, covariates=None, covariate_names=None):
    """Build a right-censored `Dataset` from parallel arrays."""
    return Dataset(KIND_RIGHT, (times, status), covariates, _as_names(covariate_names))


def interval_dataset(left, right, covariates=None, covariate_names=None):
    """Build an interval `Dataset` from parallel endpoint arrays.

    Exact observations at time 0 are accepted with one warning that counts them.
    """
    return Dataset(KIND_INTERVAL, (left, right), covariates, _as_names(covariate_names))


def recode_right_censored_as_interval(dataset: Dataset) -> Dataset:
    """Re-express right-censored data as interval records.

    Events become exact records (t, t); censored observations become
    right-censored intervals (t, inf). Covariates carry over unchanged.
    This is the encoding under which a piecewise-hazard fit can be compared
    against Kaplan-Meier machinery on the same sample.
    """
    dataset._require(KIND_RIGHT)
    left = dataset.times
    right = np.where(dataset.status == 1, dataset.times, np.inf)
    return interval_dataset(left, right, dataset.covariates, dataset.covariate_names)


def load_right_censored_dataset(source) -> Dataset:
    """Load a right-censored dataset from CSV.

    The file must have a header row naming at least ``time,status``; any
    further columns are read as dense real covariates. Row indices in error
    messages are 1-based over data rows.

    Parameters
    ----------
    source : path-like, file-like, or iterable of lines

    Returns
    -------
    Dataset
    """
    return _load(source, KIND_RIGHT)


def load_interval_dataset(source) -> Dataset:
    """Load an interval-censored dataset from CSV.

    The header must name at least ``left,right``. The right endpoint
    accepts ``inf`` in any capitalization, ``+inf``, or an empty cell for
    an infinite endpoint; the emitted form on save is always ``inf``.
    Classification into censoring classes is derived per record.
    """
    return _load(source, KIND_INTERVAL)


def save_dataset(dataset: Dataset, target) -> None:
    """Write a dataset back to CSV in the format the loaders accept.

    Floats are written with shortest round-trip precision, so a
    load/save/load cycle reproduces records and classes exactly.
    """
    first, second = dataset.columns
    second_format = _str_each if dataset.kind == KIND_RIGHT else _repr_each
    columns = [(_repr_each, first), (second_format, second)]
    if dataset.covariates is not None:
        columns += [(_repr_distinct, column) for column in dataset.covariates.T]
    is_path = isinstance(target, (str, Path))
    with open(target, "w", newline="", encoding="utf-8") if is_path else nullcontext(target) as handle:
        csv.writer(handle).writerow(list(_HEADERS[dataset.kind]) + list(dataset.covariate_names or ()))
        # No formatted number holds a delimiter, quote or line break, so
        # csv.writer would write these rows unquoted, as joined here.
        for start in range(0, dataset.n, _WRITE_ROWS):
            cells = [fmt(col[start:start + _WRITE_ROWS]) for fmt, col in columns]
            handle.write("".join([",".join(row) + "\r\n" for row in zip(*cells)]))


def _repr_distinct(chunk):
    """repr of each cell, formatting each distinct value once.

    Values are told apart by their bits, so -0.0 and 0.0 keep their own text.
    """
    bits, inverse = np.unique(np.ascontiguousarray(chunk).view(np.int64), return_inverse=True)
    text = np.array([repr(v) for v in bits.view(float).tolist()], dtype=object)
    return text[inverse].tolist()


def _repr_each(chunk):
    return map(repr, chunk.tolist())


def _str_each(chunk):
    return map(str, chunk.tolist())


def censoring_summary(dataset: Dataset) -> dict:
    """Proportions of records per censoring class.

    For interval datasets the keys are the four censoring classes; for
    right-censored datasets they are ``event`` and ``censored``. The values
    sum to 1.

    Raises
    ------
    EmptyInput
        If the dataset has no records.
    """
    if dataset.n == 0:
        raise EmptyInput("cannot summarize an empty dataset")
    return {k: v / dataset.n for k, v in dataset.class_counts.items()}


def interval_width_summary(dataset: Dataset) -> dict:
    """Mean bracket widths of an interval dataset, under two conventions.

    ``mean_width_strict`` averages right minus left over strictly-interval
    records only; ``mean_width_finite`` averages over every record with a
    finite right endpoint (left-censored, strictly-interval, and exact).
    Published summaries of visit-process designs use sometimes one and
    sometimes the other, so both are reported. A convention with no
    qualifying records yields NaN.
    """
    if dataset.n == 0:
        raise EmptyInput("cannot summarize an empty dataset")
    dataset._require(KIND_INTERVAL)
    widths = dataset.right - dataset.left
    strict = dataset.class_codes == _STRICT_CODE
    finite = np.isfinite(dataset.right)
    return {
        "mean_width_strict": float(widths[strict].mean()) if strict.any() else math.nan,
        "mean_width_finite": float(widths[finite].mean()) if finite.any() else math.nan,
    }


def _load(source, kind):
    """Parse the data rows with one vectorized call per batch of
    ``_READ_LINES`` lines. Where that reading could differ from the
    row-wise one (unparseable cells, ragged or blank lines, which loadtxt
    skips, quoted line breaks, missing or invalid values), reparse row by
    row from the start, which raises the error of the first bad row. A file
    named by path is read again for that; any other source is held as a
    list of lines."""
    if isinstance(source, (str, Path)):
        def lines():
            return open(source, newline="", encoding="utf-8")
    else:
        held = list(source)

        def lines():
            return nullcontext(iter(held))
    with lines() as handle:
        header = _read_header(handle, kind)
        names = _as_names(header[2:]) if len(header) > 2 else None
        table = _read_batches(handle, len(header), kind)
    if table is not None:
        try:
            covariates = np.ascontiguousarray(table[:, 2:]) if names else None
            return Dataset(kind, (table[:, 0], table[:, 1]), covariates, names)
        except (ValueError, PseudosurvError):
            pass
    with lines() as handle:
        reader = csv.reader(handle)
        next(reader)
        first, second, cov_rows = _parse_rows(reader, header, kind)
    covariates = np.array(cov_rows, dtype=float) if names else None
    return Dataset(kind, (first, second), covariates, names)


def _read_header(lines, kind):
    """The header row, read off ``lines``, which are left at the first body line."""
    header = next(csv.reader(lines), None)
    if header is None:
        raise ParseError("missing header row", row=0)
    header = [c.strip() for c in header]
    _check_header(header, _HEADERS[kind])
    return header


def _read_batches(lines, width, kind):
    """The body as a float table, or None when a batch's vectorized reading
    could differ from the row-wise one: it fails, yields another shape
    than one row of ``width`` cells per line, or holds a NaN."""
    converters = {1: _right_cell} if kind == KIND_INTERVAL else None
    tables = []
    while True:
        batch = list(itertools.islice(lines, _READ_LINES))
        if tables and not batch:
            break
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # loadtxt warns when no line holds data
                table = np.loadtxt(batch, dtype=float, delimiter=",", comments=None,
                                   quotechar='"', ndmin=2, converters=converters)
        except ValueError:
            return None
        if table.shape != (len(batch), width) or np.isnan(table).any():
            return None
        tables.append(table)
        if len(batch) < _READ_LINES:
            break
    return tables[0] if len(tables) == 1 else np.concatenate(tables)


def _right_cell(cell):
    return math.inf if cell.strip() == "" else float(cell)


def _parse_rows(rows, header, kind):
    first, second, cov_rows = [], [], []
    for i, row in enumerate(rows, start=1):
        if len(row) != len(header):
            raise ParseError(f"row {i}: expected {len(header)} cells, got {len(row)}", row=i)
        if kind == KIND_RIGHT:
            a = _parse_float(row[0], i, "time")
            b = _parse_float(row[1], i, "status")
            if b not in (0.0, 1.0):
                raise ParseError(f"row {i}: status must be 0 or 1, got {row[1]!r}", row=i)
            RightCensoredRecord(a, int(b))
        else:
            a = _parse_float(row[0], i, "left")
            b = math.inf if row[1].strip() == "" else _parse_float(row[1], i, "right")
            try:
                IntervalRecord(a, b)
            except MalformedInterval as exc:
                raise MalformedInterval(f"row {i}: {exc}") from exc
        first.append(a)
        second.append(b)
        cov_rows.append([_parse_float(c, i, name) for c, name in zip(row[2:], header[2:])])
    return first, second, cov_rows


def _check_header(header, expected):
    got = tuple(c.lower() for c in header[: len(expected)])
    if got != expected:
        raise ParseError(
            f"header must start with {','.join(expected)}, got {','.join(header) or '(empty)'}",
            row=0,
        )


def _parse_float(cell, row, name):
    try:
        value = float(cell)
    except ValueError:
        raise ParseError(f"row {row}: cannot parse {name}={cell!r} as a number", row=row) from None
    if math.isnan(value):
        raise ParseError(f"row {row}: missing value in column {name}", row=row)
    return value


def _as_names(names):
    if names is None:
        return None
    return tuple(str(x) for x in names)
