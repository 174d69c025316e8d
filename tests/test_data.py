"""The record rule on datasets and loaded rows, censoring classification,
and CSV round-trips."""

import csv
import io
import math
import warnings

import numpy as np
import pytest

from pseudosurv import (
    Dataset,
    ScenarioConfig,
    generate,
    km_fit,
    km_pseudo_rmst,
    EmptyInput,
    MalformedInterval,
    ParseError,
    censoring_summary,
    interval_dataset,
    interval_width_summary,
    load_interval_dataset,
    load_right_censored_dataset,
    recode_right_censored_as_interval,
    right_censored_dataset,
    save_dataset,
)
from pseudosurv import data
from pseudosurv.cli import main
from pseudosurv.data import (
    EXACT,
    KIND_INTERVAL,
    KIND_RIGHT,
    LEFT_CENSORED,
    RIGHT_CENSORED,
    STRICT_INTERVAL,
)


def test_right_censored_dataset_accepts_event_and_censoring():
    ds = right_censored_dataset([2.5, 0.0], [1, 0])
    assert ds.status.tolist() == [1, 0]
    assert ds.times.tolist() == [2.5, 0.0]


@pytest.mark.parametrize("status", [1, 2])
@pytest.mark.parametrize("time", [math.inf, -math.inf, math.nan, -0.5])
def test_right_censored_dataset_rejects_bad_times(time, status):
    """A bad time is named before a bad status."""
    with pytest.raises(MalformedInterval, match="^time must be"):
        right_censored_dataset([time], [status])


@pytest.mark.parametrize("status, error", [
    (2, ParseError), (-1, ParseError), (0.5, ParseError), ("yes", ValueError),
])
def test_right_censored_dataset_rejects_bad_status(status, error):
    with pytest.raises(error):
        right_censored_dataset([1.0], [status])


@pytest.mark.parametrize(
    "left,right,expected",
    [
        (0.0, 5.0, LEFT_CENSORED),
        (1.0, 4.0, STRICT_INTERVAL),
        (3.0, math.inf, RIGHT_CENSORED),
        (2.0, 2.0, EXACT),
        (0.0, math.inf, RIGHT_CENSORED),
    ],
)
def test_interval_dataset_classification(left, right, expected):
    assert interval_dataset([left], [right]).classes == (expected,)


def test_interval_dataset_rejects_inverted_bracket():
    with pytest.raises(MalformedInterval):
        interval_dataset([3.0], [2.0])


def test_interval_dataset_rejects_nonfinite_left():
    with pytest.raises(MalformedInterval):
        interval_dataset([math.inf], [math.inf])
    with pytest.raises(MalformedInterval):
        interval_dataset([-1.0], [2.0])


def test_exact_record_at_zero_warns_but_is_allowed():
    with pytest.warns(UserWarning):
        ds = interval_dataset([0.0], [0.0])
    assert ds.classes == (EXACT,)


def test_loader_drops_a_byte_order_mark(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_text("time,status,z\n1.5,1,2\n", encoding="utf-8-sig")
    ds = load_right_censored_dataset(path)
    assert ds.covariate_names == ("z",)
    np.testing.assert_array_equal(ds.times, [1.5])


@pytest.mark.parametrize("covariates", [True, False])
@pytest.mark.parametrize("loader, header", [
    (load_right_censored_dataset, b"time,status"), (load_interval_dataset, b"left,right")])
def test_loader_types_bytes_that_are_not_utf8(loader, header, covariates, tmp_path):
    """The text layer decodes ahead of the rows, so no row is named."""
    path = tmp_path / "latin1.csv"
    path.write_bytes(header + b"\n1,1\n\xff3,1\n")
    with pytest.raises(ParseError, match=r"^cannot decode b'\\xff': the input is not UTF-8 text$") as err:
        loader(path, covariates=covariates)
    assert err.value.row is None


@pytest.mark.parametrize("row", [0, 2], ids=["header", "body"])
@pytest.mark.parametrize("loader, header", [
    (load_right_censored_dataset, "time,status"), (load_interval_dataset, "left,right")])
def test_loader_types_a_cell_over_the_csv_field_limit(loader, header, row):
    """np.loadtxt reads the long number as inf, so its batch goes to the row
    rule, where the csv module refuses the cell; the header row is row 0."""
    lines = [header, "1,1", "2,2"]
    lines[row] = '"' + "1" * (csv.field_size_limit() + 1) + '",' + lines[row].split(",")[1]
    with pytest.raises(ParseError, match="field larger than field limit") as err:
        loader(io.StringIO("\n".join(lines) + "\n"))
    assert err.value.row == row
    assert str(err.value).startswith("header row: " if row == 0 else "row 2: ")


@pytest.mark.parametrize("cell", ["10", "1_0"], ids=["vectorized", "row-wise"])
def test_records_at_zero_warn_once_on_either_load_path(cell):
    """``1_0`` is a number to Python's float, not to np.loadtxt, so its
    batch is parsed row by row; either way one warning counts the records."""
    text = f"left,right\n0,0\n2,inf\n0,0\n0,0\n{cell},inf\n"
    with warnings.catch_warnings(record=True) as log:
        warnings.simplefilter("always")
        ds = load_interval_dataset(io.StringIO(text))
    assert ds.left[-1] == 10.0
    assert [str(w.message) for w in log] == ["exact observation at time 0 (3 records)"]


def test_dataset_rejects_unknown_kind_and_unequal_columns():
    with pytest.raises(ValueError):
        Dataset("bogus", ([1.0], [1]))
    with pytest.raises(ValueError):
        right_censored_dataset([1.0, 2.0], [1])
    with pytest.raises(ValueError):
        interval_dataset([1.0], [[2.0]])


def test_dataset_rejects_covariate_row_mismatch():
    with pytest.raises(ValueError):
        right_censored_dataset([1.0, 2.0], [1, 0], covariates=np.ones((3, 2)))


def test_dataset_rejects_covariates_that_are_not_a_matrix_or_misnamed():
    with pytest.raises(ValueError, match="2-D"):
        right_censored_dataset([1.0, 2.0], [1, 0], covariates=np.ones(2))
    with pytest.raises(ValueError, match="covariate_names length"):
        right_censored_dataset([1.0, 2.0], [1, 0], covariates=np.ones((2, 2)),
                               covariate_names=("a",))


def test_dataset_rejects_missing_covariates():
    with pytest.raises(ValueError):
        right_censored_dataset([1.0], [1], covariates=np.array([[1.0, math.nan]]))


def test_dataset_record_order_is_preserved():
    """Pseudo-observation l must stay aligned with covariate row l."""
    times = [3.0, 1.0, 2.0]
    ds = right_censored_dataset(times, [1, 0, 1])
    assert list(ds.times) == times


def test_array_accessors_enforce_kind():
    rc = right_censored_dataset([1.0], [1])
    ic = interval_dataset([1.0], [2.0])
    with pytest.raises(ValueError):
        rc.left
    with pytest.raises(ValueError):
        ic.times


def test_recode_right_censored_as_interval():
    ds = right_censored_dataset([1.0, 2.0], [1, 0], covariates=[[1.0], [2.0]])
    recoded = recode_right_censored_as_interval(ds)
    assert recoded.kind == KIND_INTERVAL
    assert recoded.classes == (EXACT, RIGHT_CENSORED)
    np.testing.assert_array_equal(recoded.left, [1.0, 2.0])
    np.testing.assert_array_equal(recoded.right, [1.0, math.inf])
    np.testing.assert_array_equal(recoded.covariates, ds.covariates)


def test_load_right_censored_with_covariates():
    text = "time,status,age,sex\n1.5,1,60,0\n2.0,0,41,1\n"
    ds = load_right_censored_dataset(io.StringIO(text))
    assert ds.n == 2
    np.testing.assert_array_equal(ds.times, [1.5, 2.0])
    np.testing.assert_array_equal(ds.status, [1, 0])
    assert ds.covariate_names == ("age", "sex")
    np.testing.assert_array_equal(ds.covariates, [[60.0, 0.0], [41.0, 1.0]])


def test_load_right_censored_without_covariates():
    ds = load_right_censored_dataset(io.StringIO("time,status\n1,1\n"))
    assert ds.covariates is None


def test_load_interval_accepts_inf_spellings_and_empty_cell():
    text = "left,right\n1,2\n3,inf\n4,INF\n5,+inf\n6,\n"
    ds = load_interval_dataset(io.StringIO(text))
    assert ds.classes == (
        STRICT_INTERVAL,
        RIGHT_CENSORED,
        RIGHT_CENSORED,
        RIGHT_CENSORED,
        RIGHT_CENSORED,
    )


def test_loader_errors_carry_one_based_row_numbers():
    with pytest.raises(ParseError) as err:
        load_right_censored_dataset(io.StringIO("time,status\n1,1\nbad,1\n"))
    assert err.value.row == 2
    assert "row 2" in str(err.value)


def test_loader_rejects_status_other_than_binary():
    with pytest.raises(ParseError):
        load_right_censored_dataset(io.StringIO("time,status\n1,2\n"))


def test_loader_rejects_wrong_header():
    with pytest.raises(ParseError):
        load_right_censored_dataset(io.StringIO("t,event\n1,1\n"))
    with pytest.raises(ParseError):
        load_interval_dataset(io.StringIO("a,b\n1,2\n"))


def test_loader_rejects_missing_header():
    with pytest.raises(ParseError):
        load_right_censored_dataset(io.StringIO(""))


def test_loader_rejects_nan_cells():
    with pytest.raises(ParseError):
        load_right_censored_dataset(io.StringIO("time,status\nnan,1\n"))


def test_loader_rejects_ragged_rows():
    with pytest.raises(ParseError) as err:
        load_right_censored_dataset(io.StringIO("time,status\n1\n"))
    assert err.value.row == 1


@pytest.mark.parametrize("loader, header", [
    (load_right_censored_dataset, "time,status,z"),
    (load_interval_dataset, "left,right,z1,z2"),
])
def test_header_without_rows_loads_an_empty_dataset(loader, header):
    ds = loader(io.StringIO(header + "\n"))
    names = tuple(header.split(",")[2:])
    assert ds.n == 0
    assert ds.covariates.shape == (0, len(names))
    assert ds.covariate_names == names


def test_interval_loader_reports_row_of_inverted_bracket():
    with pytest.raises(MalformedInterval) as err:
        load_interval_dataset(io.StringIO("left,right\n1,2\n5,3\n"))
    assert "row 2" in str(err.value)


def test_save_load_round_trip_preserves_records_and_classes():
    rng = np.random.default_rng(0)
    left = rng.uniform(0, 5, 40)
    right = left + rng.uniform(0, 3, 40)
    right[::7] = math.inf
    left[::11] = 0.0
    ds = interval_dataset(left, right, covariates=rng.normal(size=(40, 2)),
                          covariate_names=("a", "b"))
    buffer = io.StringIO()
    save_dataset(ds, buffer)
    reloaded = load_interval_dataset(io.StringIO(buffer.getvalue()))
    assert reloaded.classes == ds.classes
    np.testing.assert_array_equal(reloaded.left, ds.left)
    np.testing.assert_array_equal(reloaded.right, ds.right)
    np.testing.assert_array_equal(reloaded.covariates, ds.covariates)
    assert reloaded.covariate_names == ds.covariate_names


def test_save_load_round_trip_right_censored(tmp_path):
    ds = right_censored_dataset([0.1234567890123, 2.0], [1, 0])
    path = tmp_path / "rc.csv"
    save_dataset(ds, path)
    reloaded = load_right_censored_dataset(path)
    np.testing.assert_array_equal(reloaded.times, ds.times)
    np.testing.assert_array_equal(reloaded.status, ds.status)


def test_censoring_summary_proportions_sum_to_one():
    ds = interval_dataset([0.0, 1.0, 2.0, 3.0], [2.0, 4.0, 2.0, math.inf])
    summary = censoring_summary(ds)
    assert summary[LEFT_CENSORED] == 0.25
    assert summary[EXACT] == 0.25
    assert math.isclose(sum(summary.values()), 1.0)


def test_censoring_summary_right_censored_keys():
    ds = right_censored_dataset([1, 2, 3], [1, 0, 1])
    summary = censoring_summary(ds)
    assert summary == {"event": 2 / 3, "censored": 1 / 3}


def test_censoring_summary_empty_raises():
    with pytest.raises(EmptyInput):
        censoring_summary(right_censored_dataset([], []))


def test_interval_width_summary_two_conventions():
    # strict widths: (1,3) and (2,5); finite adds the left-censored (0,2)
    ds = interval_dataset([1.0, 2.0, 0.0, 4.0], [3.0, 5.0, 2.0, math.inf])
    widths = interval_width_summary(ds)
    assert widths["mean_width_strict"] == pytest.approx(2.5)
    assert widths["mean_width_finite"] == pytest.approx((2 + 3 + 2) / 3)


def test_interval_width_summary_empty_raises():
    with pytest.raises(EmptyInput):
        interval_width_summary(interval_dataset([], []))


def test_interval_width_summary_nan_when_no_qualifying_records():
    ds = interval_dataset([1.0], [math.inf])
    widths = interval_width_summary(ds)
    assert math.isnan(widths["mean_width_strict"])
    assert math.isnan(widths["mean_width_finite"])


@pytest.mark.parametrize("status", [[0.5, 1.0], [1.0, 1.7], [1.0, math.nan], [2, 0]])
def test_right_censored_dataset_rejects_status_other_than_binary(status):
    with pytest.raises(ParseError, match="status must be 0 or 1"):
        right_censored_dataset([1.0, 2.0], status)


def _deep_file(header, rows, bad, count=6000):
    """A header and ``count`` rows; ``bad`` maps row numbers to the lines
    that replace them."""
    lines = [header] + [bad[i] if i in bad else rows(i) for i in range(1, count + 1)]
    return "\n".join(lines) + "\n"


def _rc_row(i):
    return f"{i / 7!r},{i % 2}"


def _ic_row(i):
    return f"{i / 7!r},{i / 5!r}"


_DEEP_RC = _deep_file("time,status", _rc_row, {5321: "4.5,x"})
_DEEP_IC = _deep_file("left,right", _ic_row, {5999: "9.0,8.0"})


def _batch_cases(lines):
    """Loader cases around the end of the first batch of ``lines`` lines
    that one vectorized parse reads."""
    past = lines + 4465
    count = past + 9
    return {
        "bad_cell_past_the_first_batch": (
            load_right_censored_dataset,
            _deep_file("time,status", _rc_row, {past: "4.5,x"}, count),
            (ParseError, f"row {past}: cannot parse status='x' as a number", past),
        ),
        "blank_line_past_the_first_batch": (
            load_right_censored_dataset,
            _deep_file("time,status", _rc_row, {past: ""}, count),
            (ParseError, f"row {past}: expected 2 cells, got 0", past),
        ),
        "inverted_bracket_past_the_first_batch": (
            load_interval_dataset,
            _deep_file("left,right", _ic_row, {past: "9.0,8.0"}, count),
            (MalformedInterval,
             f"row {past}: right endpoint 8.0 is smaller than left endpoint 9.0", None),
        ),
        "several_batches": (
            load_interval_dataset,
            _deep_file("left,right,z", lambda i: f"{i},{i + 1},{-i}", {}, count),
            (np.arange(1.0, count + 1), np.arange(2.0, count + 2),
             -np.arange(1.0, count + 1)[:, None]),
        ),
        "bad_value_ahead_of_a_ragged_row_in_the_next_batch": (
            load_right_censored_dataset,
            _deep_file("time,status", _rc_row, {lines: "4.5,0.5", lines + 1: "4.5"}, lines + 9),
            (ParseError, f"row {lines}: status must be 0 or 1, got '0.5'", lines),
        ),
    }


# (loader, file text or list of lines, expected): a valid file gives its
# columns and covariates (None when absent); an invalid one gives the
# exception type, message and ParseError row (None for MalformedInterval,
# which carries none).
_LOADER_CASES = {
    "inf_spellings_and_empty_right": (
        load_interval_dataset, "left,right\n1,inf\n2,+inf\n3,INF\n4,Inf\n5,\n6,7\n",
        ([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [math.inf] * 5 + [7.0], None),
    ),
    "empty_right_with_covariate": (
        load_interval_dataset, "left,right,z\n1,,0.5\n2, ,1.5\n",
        ([1.0, 2.0], [math.inf, math.inf], [[0.5], [1.5]]),
    ),
    "quoted_cells": (
        load_right_censored_dataset, 'time,status,z\n"1.5","1",2\n2,"0","-3e-2"\n',
        ([1.5, 2.0], [1, 0], [[2.0], [-0.03]]),
    ),
    "every_cell_quoted": (
        load_interval_dataset,
        '"left","right","z"\n"1.5","2","-1"\n"0","3e-1","0"\n"2","inf","4"\n"2","","5"\n',
        ([1.5, 0.0, 2.0, 2.0], [2.0, 0.3, math.inf, math.inf], [[-1.0], [0.0], [4.0], [5.0]]),
    ),
    "list_of_lines": (
        load_right_censored_dataset, ["time,status,z", "1.5,1,2", "2,0,3", "0.5,1,-1"],
        ([1.5, 2.0, 0.5], [1, 0, 1], [[2.0], [3.0], [-1.0]]),
    ),
    "crlf": (
        load_right_censored_dataset, "time,status,z\r\n1.5,1,2\r\n2,0,3\r\n",
        ([1.5, 2.0], [1, 0], [[2.0], [3.0]]),
    ),
    "nan_is_missing": (
        load_right_censored_dataset, "time,status\n1,1\nnan,0\n",
        (ParseError, "row 2: missing value in column time", 2),
    ),
    "nan_covariate": (
        load_interval_dataset, "left,right,z\n1,2,NaN\n",
        (ParseError, "row 1: missing value in column z", 1),
    ),
    "hash_is_not_a_comment": (
        load_right_censored_dataset, "time,status\n#1,1\n",
        (ParseError, "row 1: cannot parse time='#1' as a number", 1),
    ),
    "blank_line_is_ragged": (
        load_right_censored_dataset, "time,status\n1,1\n\n2,0\n",
        (ParseError, "row 2: expected 2 cells, got 0", 2),
    ),
    "trailing_blank_line_is_ragged": (
        load_interval_dataset, "left,right\n1,2\n\n",
        (ParseError, "row 2: expected 2 cells, got 0", 2),
    ),
    "status_not_binary": (
        load_right_censored_dataset, "time,status\n1,1\n2,0.5\n",
        (ParseError, "row 2: status must be 0 or 1, got '0.5'", 2),
    ),
    "negative_time": (
        load_right_censored_dataset, "time,status\n1,1\n-1,0\n",
        (MalformedInterval, "row 2: time must be nonnegative, got -1.0", None),
    ),
    "bad_time_named_before_bad_status": (
        load_right_censored_dataset, "time,status\n1,1\n-1,2\n",
        (MalformedInterval, "row 2: time must be nonnegative, got -1.0", None),
    ),
    # 1_0 is a number to Python's float, not to np.loadtxt: row by row
    "bad_time_named_before_bad_status_row_by_row": (
        load_right_censored_dataset, "time,status\n1_0,1\n1,1\n-1,2\n",
        (MalformedInterval, "row 3: time must be nonnegative, got -1.0", None),
    ),
    "inverted_bracket": (
        load_interval_dataset, "left,right\n1,2\n5,3\n",
        (MalformedInterval, "row 2: right endpoint 3.0 is smaller than left endpoint 5.0", None),
    ),
    "deep_bad_cell": (
        load_right_censored_dataset, _DEEP_RC,
        (ParseError, "row 5321: cannot parse status='x' as a number", 5321),
    ),
    "deep_inverted_bracket": (
        load_interval_dataset, _DEEP_IC,
        (MalformedInterval, "row 5999: right endpoint 8.0 is smaller than left endpoint 9.0", None),
    ),
    **_batch_cases(data._READ_LINES),
}


def _check_loader_case(loader, text, expected, source, tmp_path, monkeypatch):
    """Valid files load in vectorized parses, without the row-wise reading,
    and give the same two columns and no covariates with
    ``covariates=False``; invalid ones raise that reading's first-row error."""
    def src():
        if source == "path":
            path = tmp_path / "data.csv"
            path.write_text(text if isinstance(text, str) else "\n".join(text) + "\n", newline="")
            return path
        return io.StringIO(text) if isinstance(text, str) else text

    if isinstance(expected[0], type):
        kind, message, row = expected
        with pytest.raises(kind) as err:
            loader(src())
        assert str(err.value) == message
        assert getattr(err.value, "row", None) == row
        return
    monkeypatch.setattr(data, "_parse_rows", None)
    first, second, covariates = expected
    for ds, expected_covariates in ((loader(src()), covariates), (loader(src(), covariates=False), None)):
        np.testing.assert_array_equal(ds.columns[0], first)
        np.testing.assert_array_equal(ds.columns[1], second)
        if expected_covariates is None:
            assert ds.covariates is None and ds.covariate_names is None
        else:
            np.testing.assert_array_equal(ds.covariates, expected_covariates)


@pytest.mark.parametrize("source", ["buffer", "path"])
@pytest.mark.parametrize("case", sorted(_LOADER_CASES))
def test_loader_rules_and_errors(case, source, tmp_path, monkeypatch):
    _check_loader_case(*_LOADER_CASES[case], source, tmp_path, monkeypatch)


@pytest.mark.parametrize("read_lines", [1, 2, 3])
@pytest.mark.parametrize("source", ["buffer", "path"])
@pytest.mark.parametrize("case", sorted(_LOADER_CASES))
def test_loader_rules_and_errors_in_small_batches(case, source, read_lines, tmp_path, monkeypatch):
    """The same cases with batches of one to three lines, the batch
    boundary cases moved to the smaller first batch."""
    monkeypatch.setattr(data, "_READ_LINES", read_lines)
    cases = {**_LOADER_CASES, **_batch_cases(read_lines)}
    _check_loader_case(*cases[case], source, tmp_path, monkeypatch)


@pytest.mark.parametrize("source", ["buffer", "path"])
def test_loader_reads_a_quoted_line_break_across_a_batch_boundary(source, tmp_path):
    """A record whose quoted cell spans the last line of one batch and the
    first of the next is read by the row-wise parse, as one record."""
    n = data._READ_LINES + 10
    lines = ["time,status"] + [_rc_row(i) for i in range(1, n + 1)]
    lines[data._READ_LINES] = '1.5,"1'
    lines[data._READ_LINES + 1] = '"'
    text = "\n".join(lines) + "\n"
    if source == "path":
        src = tmp_path / "data.csv"
        src.write_text(text, newline="")
    else:
        src = io.StringIO(text)
    ds = load_right_censored_dataset(src)
    assert ds.n == n - 1
    assert (ds.times[data._READ_LINES - 1], ds.status[data._READ_LINES - 1]) == (1.5, 1)
    assert ds.times[-1] == n / 7


def _broken_early(count, bad=None):
    """``count`` rows with covariates, row 2's covariate cell holding a
    quoted line break, and row ``bad`` (if given) holding a bad status."""
    rows = [f"{i / 7!r},{i % 2},{-i}" for i in range(1, count + 1)]
    plain = "\n".join(["time,status,z"] + rows) + "\n"
    rows[1] = rows[1].replace(",-2", ',"-2\n"')
    if bad is not None:
        rows[bad - 1] = f"{bad / 7!r},x,0"
    return plain, "\n".join(["time,status,z"] + rows) + "\n"


@pytest.mark.parametrize("source", ["buffer", "path"])
def test_batches_resume_after_one_parsed_row_by_row(source, tmp_path, monkeypatch):
    """A batch that np.loadtxt cannot take whole goes alone to the row rule:
    the records of the first batch are parsed row by row, the plain batches
    after it in vectorized parses."""
    monkeypatch.setattr(data, "_READ_LINES", 4)
    plain, broken = _broken_early(40)
    if source == "path":
        src = tmp_path / "data.csv"
        src.write_text(broken, newline="")
    else:
        src = io.StringIO(broken)
    received = []
    parse_rows = data._parse_rows

    def counted(records, *args):
        records = list(records)
        received.append(len(records))
        return parse_rows(iter(records), *args)

    monkeypatch.setattr(data, "_parse_rows", counted)
    ds = load_right_censored_dataset(src)
    # four lines, three records: row 2 spans the second and third line
    assert received == [3]
    expected = load_right_censored_dataset(io.StringIO(plain))
    np.testing.assert_array_equal(ds.times, expected.times)
    np.testing.assert_array_equal(ds.status, expected.status)
    np.testing.assert_array_equal(ds.covariates, expected.covariates)


def test_empty_right_cell_in_a_later_batch_loads_as_inf(monkeypatch):
    """The batch holding an empty right cell is parsed again with the cell
    converter, and later batches with it at once; every batch loads without
    the row rule."""
    monkeypatch.setattr(data, "_READ_LINES", 4)
    rows = [f"{i / 7!r},{i / 3!r}" for i in range(1, 21)]
    rows[9] = f"{10 / 7!r},"
    parses = []
    loadtxt = data._loadtxt

    def counted(batch, **options):
        parses.append("converters" in options)
        return loadtxt(batch, **options)

    def parse_rows(records, *args):
        assert not list(records)
        return np.empty((0, 2))

    monkeypatch.setattr(data, "_loadtxt", counted)
    monkeypatch.setattr(data, "_parse_rows", parse_rows)
    ds = load_interval_dataset(io.StringIO("\n".join(["left,right"] + rows) + "\n"))
    assert parses == [False, False, False, True, True, True]
    expected = np.arange(1, 21) / 3
    expected[9] = math.inf
    np.testing.assert_array_equal(ds.left, np.arange(1, 21) / 7)
    np.testing.assert_array_equal(ds.right, expected)


@pytest.mark.parametrize("read_lines", [1, 2, 3, None], ids=["1", "2", "3", "default"])
def test_rows_after_a_row_by_row_batch_keep_their_numbers(read_lines, monkeypatch):
    """A bad row after a batch holding a line break is named by its record
    number, not by its line."""
    if read_lines is not None:
        monkeypatch.setattr(data, "_READ_LINES", read_lines)
    count = data._READ_LINES + 30
    bad = count - 10
    _, text = _broken_early(count, bad)
    with pytest.raises(ParseError) as err:
        load_right_censored_dataset(io.StringIO(text))
    assert str(err.value) == f"row {bad}: cannot parse status='x' as a number"
    assert err.value.row == bad


# (loader, file text, expected) read with covariates=False, as _LOADER_CASES:
# the row rule parses and counts only the first two cells of a row.
_TWO_COLUMN_CASES = {
    "text_cells_row_by_row": (
        load_right_censored_dataset, "time,status,group\n1.5,1,a\n1_0,0,b\n",
        ([1.5, 10.0], [1, 0]),
    ),
    "ragged_rows_row_by_row": (
        load_right_censored_dataset, 'time,status,group\n1_0,1,a\n2,0\n3,1,x,"y\nz",nan\n',
        ([10.0, 2.0, 3.0], [1, 0, 1]),
    ),
    "empty_right_row_by_row": (
        load_interval_dataset, "left,right,z\n1_0,,a\n2,3\n4,inf,,,\n",
        ([10.0, 2.0, 4.0], [math.inf, 3.0, math.inf]),
    ),
    "one_cell": (
        load_right_censored_dataset, "time,status,group\n1,1,a\n2\n3,0,c\n",
        (ParseError, "row 2: expected at least 2 cells, got 1", 2),
    ),
    "blank_line": (
        load_interval_dataset, "left,right,z\n1,2,a\n\n3,4,c\n",
        (ParseError, "row 2: expected at least 2 cells, got 0", 2),
    ),
    "bad_time_beside_text": (
        load_right_censored_dataset, "time,status,group\n1,1,a\nx,0,b\n",
        (ParseError, "row 2: cannot parse time='x' as a number", 2),
    ),
    "bad_status_beside_text": (
        load_right_censored_dataset, "time,status,group\n1,1,a\n2,2,b\n",
        (ParseError, "row 2: status must be 0 or 1, got '2'", 2),
    ),
}


@pytest.mark.parametrize("read_lines", [1, 2, None], ids=["1", "2", "default"])
@pytest.mark.parametrize("case", sorted(_TWO_COLUMN_CASES))
def test_two_column_loads_read_and_count_only_two_cells(case, read_lines, monkeypatch):
    if read_lines is not None:
        monkeypatch.setattr(data, "_READ_LINES", read_lines)
    loader, text, expected = _TWO_COLUMN_CASES[case]
    if isinstance(expected[0], type):
        kind, message, row = expected
        with pytest.raises(kind) as err:
            loader(io.StringIO(text), covariates=False)
        assert str(err.value) == message
        assert getattr(err.value, "row", None) == row
        return
    ds = loader(io.StringIO(text), covariates=False)
    np.testing.assert_array_equal(ds.columns[0], expected[0])
    np.testing.assert_array_equal(ds.columns[1], expected[1])
    assert ds.covariates is None and ds.covariate_names is None


def _reference_csv(dataset):
    """Row-by-row formatting: repr for floats, csv.writer line ends."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    names = list(dataset.covariate_names or ())
    covariates = dataset.covariates if dataset.covariates is not None else [[]] * dataset.n
    if dataset.kind == KIND_RIGHT:
        writer.writerow(["time", "status"] + names)
        for t, s, row in zip(dataset.times, dataset.status, covariates):
            writer.writerow([repr(float(t)), int(s)] + [repr(float(v)) for v in row])
    else:
        writer.writerow(["left", "right"] + names)
        for a, b, row in zip(dataset.left, dataset.right, covariates):
            right = "inf" if math.isinf(b) else repr(float(b))
            writer.writerow([repr(float(a)), right] + [repr(float(v)) for v in row])
    return buffer.getvalue()


@pytest.mark.parametrize("scenario", ["rc", "ic1"])
def test_save_is_byte_identical_to_row_by_row_formatting(scenario):
    # more rows than one formatting chunk, and awkward floats in a covariate
    ds = generate(ScenarioConfig(scenario, n=70_000, seed=3))
    cov = ds.covariates.copy()
    cov[:6, 1] = [-0.0, 5e-324, 1e16, 1e-5, 123456789.123456789, 1 / 3]
    columns = (ds.times, ds.status) if scenario == "rc" else (ds.left, ds.right)
    ds = Dataset(ds.kind, columns, cov, ds.covariate_names)
    buffer = io.StringIO()
    save_dataset(ds, buffer)
    assert buffer.getvalue() == _reference_csv(ds)


def test_save_keeps_negative_zero_apart_from_zero(tmp_path):
    """Covariate cells are formatted once per distinct value; -0.0 equals 0.0
    but must keep its own text, in every formatting chunk."""
    ds = generate(ScenarioConfig("rc", n=140_000, seed=5))
    cov = ds.covariates.copy()
    cov[::2, 1] = -0.0
    cov[1::2, 1] = 0.0
    cov[::3, 2] = -cov[::3, 2]
    ds = Dataset(ds.kind, (ds.times, ds.status), cov, ds.covariate_names)
    buffer = io.StringIO()
    save_dataset(ds, buffer)
    assert buffer.getvalue() == _reference_csv(ds)
    path = tmp_path / "signed.csv"
    path.write_text(buffer.getvalue(), encoding="utf-8", newline="")
    back = load_right_censored_dataset(path)
    np.testing.assert_array_equal(np.signbit(back.covariates), np.signbit(cov))


def test_digit_table_equals_the_string_built_one():
    expected = "".join(f"{i:04d}" for i in range(10_000)).encode()
    assert data._QUADS.dtype == np.uint32
    assert data._QUADS.tobytes() == expected


def test_pseudo_csv_is_byte_identical_to_row_by_row_formatting(tmp_path):
    ds = generate(ScenarioConfig("rc", n=3000, seed=4))
    data_path, out = tmp_path / "rc.csv", tmp_path / "pv.csv"
    save_dataset(ds, data_path)
    assert main(["pseudo", "--data", str(data_path), "--kind", "rc", "--target",
                 "rmst", "--tau", "6", "--out", str(out)]) == 0
    values = km_pseudo_rmst(km_fit(ds), 6.0).values
    expected = "id,pseudo\n" + "".join(f"{i},{v:.12g}\n" for i, v in enumerate(values, start=1))
    assert out.read_bytes() == expected.encode()
