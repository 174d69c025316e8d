"""Censored survival datasets: columnar storage, classification, CSV input and output.

Two observation kinds are supported. Right-censored observations carry an
observed time and an event indicator. Interval observations carry a bracket
[left, right] that contains the event time, with ``right = inf`` meaning
right-censored, ``left = 0`` (with finite right) meaning left-censored, and
``left == right`` meaning an exactly observed event. A `Dataset` holds one
kind as arrays plus an optional covariate matrix aligned row by row. One
record rule, the check table `_faults`, validates the arrays of `Dataset`
and the rows that the CSV loaders parse one by one. One CSV writer, `_csv`,
formats ``%d`` and ``%.12g`` cells in numpy, byte for byte as Python's
``%`` does, and leaves the few values it cannot print exactly, and the
``repr`` cells of `save_dataset`, to Python's ``%``.
"""

from __future__ import annotations

import csv
import functools
import itertools
import math
import re
import warnings
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from ._parts import blocks
from .errors import EmptyInput, MalformedInterval, ParseError

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
# Rows formatted per piece by _csv, which bounds the text held at once. At
# 2^14 rows the byte table of an id,pseudo piece (about 0.7 MB) stays in
# cache; 2^16-row pieces formatted 10^6 rows about a third slower.
_WRITE_ROWS = 1 << 14
# Conversions that _csv formats in numpy.
_CONVERSION = re.compile(r"%d|%\.12g")
# "0000" to "9999" as 4-byte words, indexed by their value: each value's
# four decimal digits, most significant first, as ASCII bytes.
_QUADS = (np.arange(10_000)[:, None] // 10 ** np.arange(3, -1, -1) % 10
          + ord("0")).astype(np.uint8).view(np.uint32).ravel()
_UINT_POWERS = 10 ** np.arange(20, dtype=np.uint64)
_FLOAT_POWERS = 10.0 ** np.arange(16)  # each exact in float64
# A scaled value, below 10^12 < 2^40, is within half a unit in its last
# place (at most 2^-14) of the exact product; the margin is four times that.
_TIE_MARGIN = 2.0 ** -12
# Lines parsed per np.loadtxt call. This bounds the text a reader holds, and
# the lines that one cell np.loadtxt cannot read sends to the row rule.
_READ_LINES = 1 << 14


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
    Construction checks the record rule on every row: the time (or left
    endpoint) is finite and nonnegative, the status 0 or 1 (or the right
    endpoint not NaN and not below the left one). The first bad row raises
    the error of its first failing check.

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
        _check_rows(self.kind, first, second, raw)
        if self.kind == KIND_RIGHT:
            second = second.astype(int)
        else:
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
        take precedence."""
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


def load_right_censored_dataset(source, covariates=True) -> Dataset:
    """Load a right-censored dataset from CSV.

    The file must have a header row naming at least ``time,status``; any
    further columns are read as dense real covariates. Row indices in error
    messages are 1-based over data rows.

    Parameters
    ----------
    source : path-like, file-like, or iterable of lines
        Read once, one batch of lines at a time, so a pipe such as
        ``/dev/stdin`` works as well as a file.
    covariates : bool
        If False, only the first two cells of each row are parsed and
        checked: a row needs at least two cells, and any further cells may
        hold any text. The dataset then has no covariates.

    Returns
    -------
    Dataset
    """
    return _load(source, KIND_RIGHT, covariates)


def load_interval_dataset(source, covariates=True) -> Dataset:
    """Load an interval-censored dataset from CSV.

    The header must name at least ``left,right``. The right endpoint
    accepts ``inf`` in any capitalization, ``+inf``, or an empty cell for
    an infinite endpoint; the emitted form on save is always ``inf``.
    Classification into censoring classes is derived per record. The
    source and ``covariates`` are read as `load_right_censored_dataset`
    reads them.
    """
    return _load(source, KIND_INTERVAL, covariates)


def save_dataset(dataset: Dataset, target) -> None:
    """Write a dataset back to CSV in the format the loaders accept.

    Floats are written with shortest round-trip precision, so a
    load/save/load cycle reproduces records and classes exactly.
    """
    columns = list(dataset.columns)
    cells = ["%r", "%d" if dataset.kind == KIND_RIGHT else "%r"]
    if dataset.covariates is not None:
        columns += [_repr_distinct(column) for column in dataset.covariates.T]
        cells += ["%s"] * dataset.covariates.shape[1]
    is_path = isinstance(target, (str, Path))
    with open(target, "w", newline="", encoding="utf-8") if is_path else nullcontext(target) as handle:
        csv.writer(handle).writerow(list(_HEADERS[dataset.kind]) + list(dataset.covariate_names or ()))
        # No formatted number holds a delimiter, quote or line break, so
        # csv.writer would write these rows unquoted, as formatted here.
        handle.writelines(_csv("", ",".join(cells) + "\r\n", *columns))


def _csv(header, row_format, *columns):
    """Pieces of the CSV text of the array ``columns`` under ``header``.

    Each piece after the header is ``row_format`` applied to up to
    ``_WRITE_ROWS`` rows of cells, with the bytes of Python's ``%``. A row
    format whose only conversions are ``%d`` (integer columns) and ``%.12g``
    is formatted in numpy by `_numpy_rows`; any other, such as ``"%r"``
    (``repr(x)``) or ``"%s"``, by one ``%`` of the repeated row format.
    """
    yield header
    literals, conversions = _CONVERSION.split(row_format), _CONVERSION.findall(row_format)
    in_numpy = "%" not in "".join(literals)
    width = len(columns)
    for rows in blocks(len(columns[0]), _WRITE_ROWS):
        parts = [column[rows] for column in columns]
        if in_numpy:
            yield _numpy_rows(literals, conversions, parts).decode("ascii")
            continue
        cells = [None] * (width * len(parts[0]))
        for j, part in enumerate(parts):
            cells[j::width] = part.tolist()
        yield (row_format * len(parts[0])) % tuple(cells)


def _numpy_rows(literals, conversions, columns):
    """The rows of ``columns`` as bytes: each row its cells, formatted by
    ``conversions``, between ``literals``. Each literal and each cell fills
    a fixed-width block of one uint8 table with a row per row, and the same
    block of its mask of the bytes to keep; the kept bytes, row by row, are
    the text."""
    cells = [(_int_cells if conversion == "%d" else _g12_cells)(column)
             for conversion, column in zip(conversions, columns)]
    width = len("".join(literals)) + sum(cell_width for cell_width, _ in cells)
    chars = np.empty((len(columns[0]), width), np.uint8)
    mask = np.empty(chars.shape, bool)
    end = 0
    for literal, cell in itertools.zip_longest(literals, cells):
        start, end = end, end + len(literal)
        chars[:, start:end] = np.frombuffer(literal.encode("ascii"), np.uint8)
        mask[:, start:end] = True
        if cell is not None:
            cell_width, fill = cell
            start, end = end, end + cell_width
            fill(chars[:, start:end], mask[:, start:end])
    return chars[mask].tobytes()


def _int_cells(column):
    """``"%d"`` of an integer column: the width of its cells (a sign byte,
    then the digits right-aligned) and the function that writes them and
    their mask into blocks of that width."""
    value = np.asarray(column, dtype=np.int64)
    negative = value < 0
    magnitude = value.astype(np.uint64)
    magnitude[negative] = ~magnitude[negative] + np.uint64(1)  # also right for -2**63
    length = np.maximum(np.searchsorted(_UINT_POWERS, magnitude, side="right"), 1)
    width = 4 * -(-int(length.max()) // 4)
    masks = _INT_MASKS[:, :, [0, *range(21 - width, 21)]].reshape(-1, width + 1)

    def fill(chars, mask):
        chars[:, 0] = ord("-")
        chars[:, 1:] = _digits(magnitude, width // 4)
        mask[:] = np.take(masks, negative * 21 + length, axis=0)

    return width + 1, fill


def _g12_cells(column):
    """``"%.12g"`` of a float column: the width of its cells and the function
    that writes them and their mask into blocks of that width. Each cell is
    laid out as `_fixed_mask` says, or holds the text of Python's ``%`` where
    `_fixed` finds no mantissa that numpy may print."""

    def fill(chars, mask):
        value = np.asarray(column, dtype=float)
        fast, exponent, mantissa = _fixed(value)
        digits = _digits(mantissa, 3)
        significant = 12 - np.argmax(digits[:, ::-1] != ord("0"), axis=1)
        chars[:, 0] = ord("-")
        chars[:, 1:13] = chars[:, 18:] = digits
        chars[:, 13:18] = np.frombuffer(b"0.000", np.uint8)
        pattern = ((value < 0) * 16 + exponent + 4) * 12 + significant - 1  # a row of _FIXED_MASKS
        mask[:] = np.take(_FIXED_MASKS.reshape(-1, 30), pattern, axis=0)
        slow = np.flatnonzero(~fast)
        if slow.size:
            # The longest text, "-1.23456789012e-308", has 19 bytes.
            text = np.array(["%.12g" % x for x in value[slow].tolist()], dtype="S19")
            chars[slow, :19] = text.view(np.uint8).reshape(-1, 19)
            mask[slow] = np.arange(30) < np.char.str_len(text)[:, None]

    return 30, fill


def _fixed(value):
    """The mask of the float64 ``value`` whose ``"%.12g"`` numpy may print,
    and their decimal exponents and 12-digit mantissas (filler elsewhere).

    A finite nonzero value of decimal exponent e, -4 <= e <= 11, prints in
    fixed notation. Its mantissa is rint(|x| 10^(11-e)), where the product
    rounds once because 10^(11-e) is exact. The product is off by at most
    half a unit in its last place, so a mantissa whose scaled value lies
    within ``_TIE_MARGIN`` of a half-integer may be misrounded. Such values,
    a mantissa that carries to 13 digits, and zero, non-finite values and
    exponent notation are left to Python's ``%``, which rounds the exact
    binary value correctly.
    """
    size = np.abs(value)
    with np.errstate(divide="ignore", invalid="ignore"):
        exponent = np.floor(np.log10(size))
    fast = (exponent >= -4) & (exponent <= 11)
    exponent = np.where(fast, exponent, 0).astype(np.intp)
    scaled = np.where(fast, size, 1.0) * _FLOAT_POWERS[11 - exponent]
    mantissa = np.rint(scaled)
    fast &= (scaled >= 1e11) & (mantissa < 1e12) & (np.abs(scaled - np.floor(scaled) - 0.5) > _TIE_MARGIN)
    return fast, exponent, np.where(fast, mantissa, 1e11).astype(np.int64)


def _fixed_mask(negative, exponent, significant):
    """The bytes that spell a value in fixed notation, out of "-", its 12
    digits, "0.000" and its 12 digits again: the sign if ``negative``, the
    integer digits, then "0." and the leading zeros of a value below 1, the
    point, and the fraction digits up to the last ``significant`` one."""
    return ([negative] + [j <= exponent for j in range(12)] + [exponent < 0, significant > exponent + 1]
            + [j >= exponent + 4 for j in range(3)] + [max(exponent, -1) < j < significant for j in range(12)])


def _digits(value, words):
    """The last ``4 * words`` decimal digits of the nonnegative integers ``value`` as uint8 rows."""
    quads = np.empty((value.size, words), np.uint32)
    for j in range(words - 1, -1, -1):
        value, last = np.divmod(value, 10_000)
        quads[:, j] = np.take(_QUADS, last)
    return quads.view(np.uint8)


# The "%d" masks over a sign byte and 20 digit places, for each sign and count of digits.
_INT_MASKS = np.array([[[negative] + [place >= 20 - digits for place in range(20)] for digits in range(21)]
                       for negative in (False, True)])
# _fixed_mask for each sign, exponent -4..11 and count 1..12 of significant digits.
_FIXED_MASKS = np.array([[[_fixed_mask(negative, e, k) for k in range(1, 13)] for e in range(-4, 12)]
                         for negative in (False, True)])


def _repr_distinct(column):
    """repr of each cell as an object array, formatting each distinct value once.

    Values are told apart by their bits, so -0.0 and 0.0 keep their own text.
    """
    bits, inverse = np.unique(np.ascontiguousarray(column).view(np.int64), return_inverse=True)
    text = np.array([repr(v) for v in bits.view(float).tolist()], dtype=object)
    return text[inverse]


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


def _load(source, kind, covariates):
    """Read ``source`` once: a path is opened, anything else is iterated as
    lines, a path's byte-order mark dropped. The header comes first, then
    the body, `_parse_rows` its row rule; without ``covariates``, only the
    first two cells of each row. Bytes that are not UTF-8 raise a rowless `ParseError`."""
    is_path = isinstance(source, (str, Path))
    with open(source, newline="", encoding="utf-8-sig") if is_path else nullcontext(iter(source)) as lines:
        try:
            header = _read_header(lines, kind)
            names = _HEADERS[kind] + tuple(header[2:] if covariates else ())
            table = _read_body(
                lines, lambda records, start, _: _parse_rows(records, names, kind, start, covariates),
                width=len(names), accept=lambda t: not _bad_rows(kind, t[:, 0], t[:, 1]).any(),
                converters={1: _right_cell} if kind == KIND_INTERVAL else None,
                usecols=None if covariates else (0, 1),
            )
        except UnicodeDecodeError as exc:
            raise ParseError(_not_utf8(exc)) from None
    names = names[2:] or None
    matrix = np.ascontiguousarray(table[:, 2:]) if names else None
    return Dataset(kind, (table[:, 0], table[:, 1]), matrix, names)


def _not_utf8(exc):
    """The message of a `UnicodeDecodeError` met while reading CSV text."""
    return f"cannot decode {exc.object[exc.start:exc.end]!r}: the input is not UTF-8 text"


def _read_header(lines, kind):
    """The header row, read off ``lines``, which are left at the first body line."""
    try:
        header = next(csv.reader(lines), None)
    except csv.Error as exc:
        raise ParseError(f"header row: {exc}", row=0) from None
    if header is None:
        raise ParseError("missing header row", row=0)
    header = [c.strip() for c in header]
    expected = _HEADERS[kind]
    if tuple(c.lower() for c in header[: len(expected)]) != expected:
        raise ParseError(f"header must start with {','.join(expected)},"
                         f" got {','.join(header) or '(empty)'}", row=0)
    return header


def _read_body(lines, parse_rows, width=None, accept=lambda t: True, converters=None, **options):
    """The body of a CSV, read off ``lines``, as one float table.

    Each batch of ``_READ_LINES`` lines is parsed by one np.loadtxt call with
    ``options``, and from the first batch numpy rejects on (parsed twice) with
    ``converters`` too. Its table is kept if every line gave a row of ``width``
    cells (by default the first table's), no cell is NaN, ``accept(table)``
    holds and the last line leaves no quote open. Any other batch goes alone
    to the caller's row rule ``parse_rows(records, start, width)``, which
    returns its table or raises the error of its first bad record, and
    batching resumes. ``records`` yields (body lines before it, cells) for
    each record starting in the batch; ``start`` is its first table row.
    The batch tables fill one table, which doubles as it grows and is
    trimmed to the rows read at the end.
    """
    table = np.empty((0, width or 0))
    rows = lines_read = 0
    while batch := list(itertools.islice(lines, _READ_LINES)):
        part = _loadtxt(batch, **options)
        if part is None and converters:
            options["converters"], converters = converters, None
            part = _loadtxt(batch, **options)
        if (part is None or part.shape != (len(batch), width or part.shape[1])
                or np.isnan(part).any() or not accept(part) or batch[-1].count('"') % 2):
            reader = csv.reader(itertools.chain(batch, lines))
            records = _records(reader, len(batch), lines_read)
            part = parse_rows(records, rows + 1, width)
            lines_read += reader.line_num
        else:
            lines_read += len(batch)
        if len(part):
            width = part.shape[1]
            if rows + len(part) > len(table):
                # Grows in place; no view of the table exists to invalidate.
                table.resize((max(2 * len(table), rows + len(part)), width), refcheck=False)
            table[rows:rows + len(part)] = part
            rows += len(part)
    table.resize((rows, width or 0), refcheck=False)
    return table


def _loadtxt(batch, **options):
    """One np.loadtxt parse of ``batch``, or None if numpy rejects it."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # loadtxt warns when no line holds data
            return np.loadtxt(batch, dtype=float, delimiter=",", comments=None,
                              quotechar='"', ndmin=2, **options)
    except ValueError:
        return None


def _records(reader, count, before):
    """``_read_body``'s records: those of ``reader`` that start in its first
    ``count`` lines, after ``before`` others."""
    while reader.line_num < count:
        yield before + reader.line_num, next(reader)


def _faults(kind, first, second):
    """The record rule: one (error type, mask of the failing rows, message)
    per check on the two columns as floats, in the order in which a record's
    error names them. A message formats the row's cells as ``{a}`` and
    ``{b}``, and its raw second cell as ``{raw!r}``. Masks are made one at
    a time, as they are taken."""
    name = "time" if kind == KIND_RIGHT else "left endpoint"
    yield MalformedInterval, ~np.isfinite(first), name + " must be finite, got {a}"
    yield MalformedInterval, first < 0, name + " must be nonnegative, got {a}"
    if kind == KIND_RIGHT:
        yield ParseError, (second != 0) & (second != 1), "status must be 0 or 1, got {raw!r}"
    else:
        yield MalformedInterval, np.isnan(second), "right endpoint is NaN"
        yield MalformedInterval, second < first, "right endpoint {b} is smaller than left endpoint {a}"


def _bad_rows(kind, first, second):
    """Mask of the rows that break the record rule `_faults`."""
    return functools.reduce(np.logical_or, (mask for _, mask, _ in _faults(kind, first, second)))


def _check_rows(kind, first, second, raw, row=None):
    """Raise the error of the first row that breaks the record rule, given
    the two columns as floats and the raw second column. With ``row``, rows
    are numbered from it in the message and in `ParseError.row`."""
    bad = _bad_rows(kind, first, second)
    if not bad.any():
        return
    i = int(bad.argmax())
    a, b = float(first[i]), float(second[i])
    error, _, message = next(f for f in _faults(kind, np.array([a]), np.array([b])) if f[1][0])
    message = message.format(a=a, b=b, raw=np.asarray(raw[i]).item())
    if row is not None:
        message, row = f"row {row + i}: {message}", row + i
    raise ParseError(message, row=row) if error is ParseError else error(message)


def _right_cell(cell):
    return math.inf if cell.strip() == "" else float(cell)


def _parse_rows(records, names, kind, start, covariates):
    """The row rule of ``--data``: records numbered from ``start`` as an
    (m, width) float table, their cells named ``names`` parsed one by one;
    without ``covariates``, a record may hold further cells, not read. The
    records whose time and status (or endpoints) parsed are checked against
    the record rule before a later cell's fault is raised, so the first bad
    row's error is raised. A record that the csv module cannot read, such as
    one with a cell longer than ``csv.field_size_limit()``, is a bad row too."""
    parse_second = _right_cell if kind == KIND_INTERVAL else float
    pairs, raw, cells, fault = [], [], [], None
    try:
        for i, (_, row) in enumerate(records, start=start):
            if len(row) < len(names) or covariates and len(row) > len(names):
                at_least = "" if covariates else "at least "
                raise ParseError(f"row {i}: expected {at_least}{len(names)} cells, got {len(row)}", row=i)
            pairs.append((_parse_float(row[0], i, names[0]),
                          _parse_float(row[1], i, names[1], parse_second)))
            raw.append(row[1])
            cells.append([_parse_float(c, i, name) for c, name in zip(row[2:], names[2:])])
    except ParseError as exc:
        fault = exc
    except csv.Error as exc:  # the records before it all parsed
        fault = ParseError(f"row {start + len(cells)}: {exc}", row=start + len(cells))
    first, second = np.array(pairs, dtype=float).reshape(-1, 2).T
    _check_rows(kind, first, second, raw, row=start)
    if fault is not None:
        raise fault
    cells = np.array(cells, dtype=float).reshape(len(pairs), len(names) - 2)
    return np.column_stack((first, second, cells))


def _parse_float(cell, row, name, parse=float):
    try:
        value = parse(cell)
    except ValueError:
        raise ParseError(f"row {row}: cannot parse {name}={cell!r} as a number", row=row) from None
    if math.isnan(value):
        raise ParseError(f"row {row}: missing value in column {name}", row=row)
    return value


def _as_names(names):
    if names is None:
        return None
    return tuple(str(x) for x in names)
