"""Properties of the fast pseudo-observations over generated samples.

The piecewise-hazard fit is checked on interval-censored samples of 5 to 60
records of every censoring class on a grid of 1 to 4 pieces. Samples whose
fit is not identifiable, does not converge or has a singular information
are rejected, since no pseudo-observation exists for them.

The product-limit maps are checked on right-censored samples of 1 to 60
records whose times lie on a coarse grid, so that events, censorings and
the horizon tie heavily.

The fast values approach the jackknife's as the sample grows: on the
paper's rc and ic1 scenarios their mean gap at 4n is at most half that at n.

The CSV loaders and the readers of ``regress``'s inputs are checked on
short generated files, mostly valid rows with quoted, padded, missing,
malformed and ragged cells among them.

Hypothesis runs derandomized, so every run checks the same examples.
"""

import csv
import io
import math
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

from pseudosurv import (
    CutGrid,
    PseudosurvError,
    RMST,
    ScenarioConfig,
    check_conditions,
    fit_pch,
    generate,
    interval_dataset,
    jackknife_km,
    jackknife_pch,
    km_fit,
    km_pseudo_rmst,
    km_pseudo_survival,
    load_interval_dataset,
    load_right_censored_dataset,
    pseudo_alpha,
    pseudo_rmst,
    pseudo_survival,
    right_censored_dataset,
)
from pseudosurv import cli, data
from pseudosurv.fitting import _initial_rates
from pseudosurv.pch import loglik_parts, prepare_likelihood, rmst_closed_form, score_matrix

examples = settings(max_examples=60, deadline=None, derandomize=True)


@st.composite
def ic_samples(draw):
    """(dataset, grid): brackets, right-censored, exact and left-censored records."""
    gaps = draw(st.lists(st.floats(0.3, 2.0), max_size=3))
    grid = CutGrid(tuple(np.cumsum(gaps)))
    top = (grid.cuts[-1] if grid.cuts else 1.0) + 1.0
    record = st.tuples(st.integers(0, 3), st.floats(0.05, top), st.floats(0.1, 2.0))
    left, right = [], []
    for kind, a, w in draw(st.lists(record, min_size=5, max_size=60)):
        lo, hi = ((a, a + w), (a, math.inf), (a, a), (0.0, a))[kind]
        left.append(lo)
        right.append(hi)
    return interval_dataset(left, right), grid


def _fit_or_reject(ds, grid, **options):
    try:
        fit = fit_pch(ds, grid, strict=True, **options)
        fit.info_factor
    except PseudosurvError:
        reject()
    return fit


@examples
@given(ic_samples(), st.floats(0.1, 5.0), st.one_of(st.floats(0.1, 5.0), st.just(math.inf)))
def test_fast_pseudo_values_average_to_the_plugin(sample, t, tau):
    ds, grid = sample
    # The mean misses the plug-in by info^-1 times the mean score, which is
    # the Newton step from the fitted rates: the default stopping rule, on
    # the step, bounds it whatever the information's condition.
    fit = _fit_or_reject(ds, grid)
    np.testing.assert_allclose(pseudo_alpha(fit, ds).mean(axis=0), fit.model.rates, atol=1e-7)
    assert pseudo_survival(fit, ds, t).mean() == pytest.approx(
        float(fit.model.survival(t)), abs=1e-7
    )
    assert pseudo_rmst(fit, ds, tau).mean() == pytest.approx(
        rmst_closed_form(fit.model, tau), abs=1e-7
    )


@examples
@given(ic_samples(), st.floats(0.1, 5.0), st.randoms(use_true_random=False))
def test_permuting_the_records_permutes_the_pseudo_values(sample, t, rnd):
    ds, grid = sample
    fit = _fit_or_reject(ds, grid)
    order = np.array(rnd.sample(range(ds.n), ds.n))
    shuffled = interval_dataset(ds.left[order], ds.right[order])
    np.testing.assert_allclose(
        pseudo_alpha(fit, shuffled), pseudo_alpha(fit, ds)[order], rtol=0, atol=1e-13
    )
    for pseudo in (pseudo_survival, pseudo_rmst):
        np.testing.assert_allclose(
            pseudo(fit, shuffled, t).values, pseudo(fit, ds, t).values[order],
            rtol=0, atol=1e-13,
        )


@examples
@given(ic_samples(), st.randoms(use_true_random=False))
def test_permuting_the_records_leaves_the_fit_unchanged(sample, rnd):
    ds, grid = sample
    fit = _fit_or_reject(ds, grid)
    order = np.array(rnd.sample(range(ds.n), ds.n))
    other = fit_pch(interval_dataset(ds.left[order], ds.right[order]), grid, strict=True)
    assert other.iterations == fit.iterations
    np.testing.assert_allclose(other.model.rates, fit.model.rates, rtol=1e-13, atol=0)


@examples
@given(ic_samples())
def test_start_matches_brute_force_exposure(sample):
    """The start's per-piece sums against the n x K exposure matrix; a piece
    nobody reaches starts at the pooled rate."""
    ds, grid = sample
    finite = np.isfinite(ds.right)
    imputed = np.where(finite, (ds.left + np.where(finite, ds.right, 0.0)) / 2.0, ds.left)
    exposure = grid.exposure(imputed).sum(axis=0)
    t = imputed[finite]
    events = np.array([np.sum((t > lo) & (t <= hi)) for lo, hi in zip(grid.lower, grid.upper)])
    events[0] += np.sum(t == 0.0)
    pooled = (events.sum() + 0.5) / exposure.sum()
    expected = [(e + 0.5) / x if x > 0 else pooled for e, x in zip(events, exposure)]
    np.testing.assert_allclose(_initial_rates(ds, grid), expected, rtol=1e-12, atol=0)


@examples
@given(ic_samples(), st.lists(st.floats(0.05, 3.0), min_size=4, max_size=4))
def test_score_matrix_columns_sum_to_the_kernel_gradient(sample, rates):
    """The per-record scores against the hoisted aggregate gradient."""
    ds, grid = sample
    alpha = np.array(rates[: grid.K])
    prep = prepare_likelihood(ds, grid)
    np.testing.assert_allclose(
        score_matrix(alpha, prep).sum(axis=0), loglik_parts(alpha, prep)[1],
        rtol=1e-12, atol=1e-12,
    )


@examples
@given(ic_samples(), st.integers(-6, 6), st.one_of(st.floats(0.1, 5.0), st.just(math.inf)))
def test_scaling_time_by_a_power_of_two_scales_rates_and_rmst(sample, k, tau):
    """Times, cuts and tau in units 2^k times smaller: the rates are 2^k
    times smaller too, and the restricted means 2^k times larger."""
    ds, grid = sample
    scale = 2.0**k
    fit = _fit_or_reject(ds, grid)
    scaled = interval_dataset(ds.left * scale, ds.right * scale)
    other = _fit_or_reject(scaled, CutGrid(tuple(c * scale for c in grid.cuts)))
    np.testing.assert_allclose(other.model.rates * scale, fit.model.rates, rtol=1e-12, atol=0)
    values = pseudo_rmst(fit, ds, tau).values
    np.testing.assert_allclose(pseudo_rmst(other, scaled, tau * scale).values / scale, values,
                               rtol=1e-10, atol=1e-10 * np.abs(values).max())


@examples
@given(st.lists(st.tuples(st.floats(0.05, 5.0), st.booleans()), min_size=1, max_size=60))
def test_one_piece_fit_is_the_exponential_mle(records):
    """On exact and right-censored records one exponential piece fits at
    events / total time."""
    assume(any(exact for _, exact in records))
    times = [t for t, _ in records]
    ds = interval_dataset(times, [t if exact else math.inf for t, exact in records])
    fit = fit_pch(ds, CutGrid(()))
    events = sum(exact for _, exact in records)
    assert fit.model.rates[0] == pytest.approx(events / math.fsum(times), rel=1e-12, abs=0)


@st.composite
def endpoints_on_cuts(draw):
    """(dataset, grid) whose endpoints fall on cut points and at 0 often:
    brackets, right-censored, exact and left-censored records."""
    gaps = draw(st.lists(st.floats(0.3, 2.0), max_size=4))
    grid = CutGrid(tuple(np.cumsum(gaps)))
    top = (grid.cuts[-1] if grid.cuts else 1.0) + 1.0
    point = st.one_of(st.sampled_from((0.0,) + grid.cuts), st.floats(0.0, top))
    left, right = [], []
    for kind, p, q in draw(st.lists(st.tuples(st.integers(0, 3), point, point),
                                    min_size=1, max_size=40)):
        lo, hi = min(p, q), max(p, q)
        lo, hi = ((lo, hi if hi > lo else lo + 0.5), (p, math.inf), (p, p), (0.0, q or 0.5))[kind]
        left.append(lo)
        right.append(hi)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # exact records at time 0
        return interval_dataset(left, right), grid


@examples
@given(endpoints_on_cuts())
def test_condition_counts_match_a_count_per_piece(sample):
    ds, grid = sample
    left, right = ds.left, ds.right
    finite = np.isfinite(right)
    meets = [int(np.sum(finite & (left <= hi) & (right > lo)))
             for lo, hi in zip(grid.lower, grid.upper)]
    exceeds = [int(np.sum(left > lo)) for lo in grid.lower]
    report = check_conditions(ds, grid)
    assert report.finite_counts == tuple(meets)
    assert report.exceed_counts == tuple(exceeds)
    assert report.violations == tuple(
        (k + 1, condition) for k in range(grid.K)
        for condition, counts in ((1, meets), (2, exceeds)) if counts[k] == 0
    )


@st.composite
def grids_and_times(draw):
    """(grid, times): 1 to 50 pieces, and times on the cuts, at 0, at inf
    and between."""
    gaps = draw(st.lists(st.floats(0.01, 2.0), max_size=49))
    grid = CutGrid(tuple(np.cumsum(gaps)))
    top = (grid.cuts[-1] if grid.cuts else 1.0) * 1.2
    point = st.one_of(st.sampled_from((0.0, math.inf) + grid.cuts), st.floats(0.0, top))
    return grid, draw(st.lists(point, min_size=1, max_size=30))


@examples
@given(grids_and_times())
def test_piece_index_counts_the_cuts_below(sample):
    grid, times = sample
    expected = np.searchsorted(grid.upper[:-1], times, side="left")
    pieces = grid.piece_index(np.array(times))
    assert pieces.dtype == expected.dtype
    np.testing.assert_array_equal(pieces, expected)
    for t, k in zip(times, expected):
        assert grid.piece_index(t) == k


# Times on a grid of step 0.5 up to 4, and horizons on the same grid or off
# it, up to beyond the last time (where the maps warn and extend flat).
_GRID_STEP = 0.5
_horizons = st.one_of(
    st.integers(1, 10).map(lambda i: i * _GRID_STEP), st.floats(0.01, 5.5)
)
beyond_last_time = pytest.mark.filterwarnings("ignore:.*last observed time:UserWarning")


@st.composite
def rc_samples(draw):
    """A right-censored dataset with at least one event and heavy ties."""
    records = draw(st.lists(
        st.tuples(st.integers(0, 8), st.integers(0, 1)), min_size=1, max_size=60
    ))
    assume(any(status for _, status in records))
    times = [i * _GRID_STEP for i, _ in records]
    return right_censored_dataset(times, [status for _, status in records])


def _assert_same_bits(a, b):
    assert a.shape == b.shape
    np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))


@beyond_last_time
@examples
@given(rc_samples(), _horizons, _horizons)
def test_km_fast_pseudo_values_average_to_the_plugin(ds, t, tau):
    km = km_fit(ds)
    for pv, plug_in in ((km_pseudo_survival(km, t), km.survival_at(t)),
                        (km_pseudo_rmst(km, tau), km.rmst(tau))):
        assert abs(pv.mean() - plug_in) <= 1e-12 * abs(plug_in)


@beyond_last_time
@examples
@given(rc_samples(), _horizons, _horizons, st.randoms(use_true_random=False))
def test_km_permuting_the_records_permutes_the_pseudo_values(ds, t, tau, rnd):
    order = np.array(rnd.sample(range(ds.n), ds.n))
    km = km_fit(ds)
    other = km_fit(right_censored_dataset(ds.times[order], ds.status[order]))
    _assert_same_bits(km_pseudo_survival(other, t).values, km_pseudo_survival(km, t).values[order])
    _assert_same_bits(km_pseudo_rmst(other, tau).values, km_pseudo_rmst(km, tau).values[order])


@beyond_last_time
@examples
@given(rc_samples(), _horizons, _horizons, st.integers(-12, 12))
def test_km_scaling_time_by_a_power_of_two(ds, t, tau, k):
    """RMST values scale exactly with the time unit; survival values do not move."""
    scale = 2.0 ** k
    km = km_fit(ds)
    scaled = km_fit(right_censored_dataset(ds.times * scale, ds.status))
    _assert_same_bits(km_pseudo_survival(scaled, t * scale).values,
                      km_pseudo_survival(km, t).values)
    _assert_same_bits(km_pseudo_rmst(scaled, tau * scale).values,
                      km_pseudo_rmst(km, tau).values * scale)


@examples
@given(st.integers(1, 60), st.integers(1, 8))
def test_km_all_events_tied(n, i):
    """Every subject has its event at one time c: the curve drops from 1 to
    0 at c, so each survival value is the indicator of outliving the
    horizon and each RMST value is min(c, tau)."""
    c = i * _GRID_STEP
    km = km_fit(right_censored_dataset([c] * n, [1] * n))
    _assert_same_bits(km_pseudo_survival(km, c - _GRID_STEP / 2).values, np.ones(n))
    _assert_same_bits(km_pseudo_survival(km, c).values, np.zeros(n))
    _assert_same_bits(km_pseudo_rmst(km, c).values, np.full(n, c))
    _assert_same_bits(km_pseudo_rmst(km, c / 2).values, np.full(n, c / 2))


@examples
@given(rc_samples(), st.floats(0.01, 1.0))
def test_km_horizon_before_the_first_event(ds, fraction):
    km = km_fit(ds)
    first = float(km.event_times[0])
    assume(first > 0)
    horizon = first * fraction * (1 - 1e-9)
    _assert_same_bits(km_pseudo_survival(km, horizon).values, np.ones(ds.n))
    _assert_same_bits(km_pseudo_rmst(km, horizon).values, np.full(ds.n, horizon))


@examples
@given(rc_samples(), st.floats(1e-6, 10.0))
def test_km_horizon_past_the_last_time(ds, beyond):
    """Past the last time the maps warn, extend the curve flat and still
    average to the plug-in."""
    km = km_fit(ds)
    horizon = km.max_time + beyond
    with pytest.warns(UserWarning, match="last observed time"):
        survival = km_pseudo_survival(km, horizon)
    with pytest.warns(UserWarning, match="last observed time"):
        rmst = km_pseudo_rmst(km, horizon)
    with pytest.warns(UserWarning, match="last observed time"):
        assert survival.mean() == pytest.approx(km.survival_at(horizon), rel=1e-12, abs=0)
    with pytest.warns(UserWarning, match="last observed time"):
        assert rmst.mean() == pytest.approx(km.rmst(horizon), rel=1e-12, abs=0)


def _fast_jackknife_gap(scenario, n, seed):
    """Mean |fast - jackknife| of the RMST pseudo values of a generated
    sample; rejects a sample whose fit or a leave-one-out refit fails."""
    config = ScenarioConfig(scenario, n=n, seed=seed)
    ds = generate(config)
    if scenario == "rc":
        km = km_fit(ds)
        fast, slow = km_pseudo_rmst(km, config.tau), jackknife_km(ds, RMST, config.tau)
    else:
        try:
            fit = fit_pch(ds, CutGrid(config.cuts))
            fast = pseudo_rmst(fit, ds, config.tau)
        except PseudosurvError:
            reject()
        slow = jackknife_pch(ds, fit.model.grid, RMST, config.tau, fit=fit)
        assume(slow.flagged is None)
    return np.mean(np.abs(fast.values - slow.values))


@examples
@given(st.sampled_from([("rc", 100), ("ic1", 200)]), st.integers(0, 2**32 - 1))
def test_fast_jackknife_gap_halves_from_n_to_4n(case, seed):
    """The gap is of order 1/n, so 4n should about quarter it."""
    scenario, n = case
    assert _fast_jackknife_gap(scenario, 4 * n, seed) <= 0.5 * _fast_jackknife_gap(scenario, n, seed)


_NUMBERS = ("0", "1", "2.5", "1e-1", '"1.5"', " 3 ")
_RIGHTS = ("2.5", "3", "inf", "Inf", "", '"4"')
_WILD = ("x", "nan", "-1", "inf", "", "0.5", "1_000", '"', '"7', '8"', '""', "1,1")


@st.composite
def csv_files(draw):
    """(loader, text): a header, then mostly valid rows of the loader's kind,
    some with a quoted line break in the last cell, some with malformed or
    invalid cells, some ragged."""
    interval = draw(st.booleans())
    loader, header = ((load_interval_dataset, "left,right") if interval
                      else (load_right_censored_dataset, "time,status"))
    covariates = draw(st.integers(0, 1))
    first, second = (_NUMBERS, _RIGHTS) if interval else (_NUMBERS, ("0", "1", '"1"'))
    valid = st.tuples(st.sampled_from(first), st.sampled_from(second),
                      *[st.sampled_from(_NUMBERS)] * covariates)
    broken = valid.map(lambda cells: [*cells[:-1], '"' + cells[-1].strip('"') + '\n"'])
    wild = st.tuples(*[st.sampled_from(_NUMBERS + _WILD)] * (2 + covariates))
    ragged = st.lists(st.sampled_from(_NUMBERS), max_size=4)
    rows = draw(st.lists(st.one_of(valid, valid, broken, wild, ragged), max_size=14))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [header + ",z" * covariates] + [",".join(row) for row in rows]
    return loader, end.join(lines) + draw(st.sampled_from(["", end]))


def _load_outcome(loader, text, read_lines):
    """The columns of the loaded file, or its error's type, message and row."""
    with mock.patch.object(data, "_READ_LINES", read_lines), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            ds = loader(io.StringIO(text))
        except (PseudosurvError, csv.Error) as exc:
            return type(exc), str(exc), getattr(exc, "row", None)
    covariates = None if ds.covariates is None else (ds.covariates.shape, ds.covariates.tobytes())
    return ds.columns[0].tobytes(), ds.columns[1].tobytes(), covariates


@settings(max_examples=200, deadline=None, derandomize=True)
@given(csv_files())
def test_loading_in_small_batches_matches_one_batch(file):
    """Batches of one to five lines load every file as one batch holding
    the whole file does: the same columns, or the same first error."""
    loader, text = file
    whole = _load_outcome(loader, text, 1 << 16)
    for read_lines in range(1, 6):
        assert _load_outcome(loader, text, read_lines) == whole


_IDS = ("1", "a", '"b, c"', '"d\ne"', "")


@st.composite
def regress_files(draw):
    """(usecols, text): an ``id,pseudo`` file (usecols 1) or a covariates
    file (usecols None), with blank lines, quoted, padded and malformed
    cells, ragged rows and quoted line breaks among mostly valid rows."""
    usecols = draw(st.sampled_from([1, None]))
    width = 2 if usecols else draw(st.integers(1, 3))
    first = st.sampled_from(_IDS) if usecols else st.sampled_from(_NUMBERS)
    valid = st.tuples(first, *[st.sampled_from(_NUMBERS)] * (width - 1))
    broken = valid.map(lambda cells: [*cells[:-1], '"' + cells[-1].strip('"') + '\n"'])
    wild = st.tuples(*[st.sampled_from(_NUMBERS + _WILD)] * width)
    ragged = st.lists(st.sampled_from(_NUMBERS), max_size=4)
    blank = st.just(())
    rows = draw(st.lists(st.one_of(valid, valid, broken, wild, ragged, blank), max_size=14))
    header = "id,pseudo" if usecols else ",".join(f"z{j}" for j in range(width))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    lines = [""] * draw(st.integers(0, 2)) + [header] + [",".join(row) for row in rows]
    return usecols, end.join(lines) + draw(st.sampled_from(["", end]))


def _regress_outcome(path, usecols, read_lines):
    """The header and body `regress` reads from ``path``, or its message."""
    with mock.patch.object(data, "_READ_LINES", read_lines):
        try:
            header, body = cli._read_csv(path, usecols)
        except ValueError as exc:
            assert str(exc).startswith(f"{path}: "), exc
            return str(exc)
    return header, body.shape, body.tobytes()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(regress_files())
def test_regress_inputs_in_small_batches_match_one_batch(file):
    """Batches of one to five lines read every ``regress`` input as one batch
    holding the whole file does: the same table, or the same message."""
    usecols, text = file
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "input.csv"
        path.write_bytes(text.encode())
        whole = _regress_outcome(path, usecols, 1 << 16)
        for read_lines in range(1, 6):
            assert _regress_outcome(path, usecols, read_lines) == whole


def _float_from_bits(bits):
    return float(np.array(bits, dtype=np.int64).view(float))


def _bits(x):
    return int(np.array(x).view(np.int64))


# Each side of every place where "%.12g" changes notation, rounds into the
# next decade or meets a special value.
_G12_EDGES = [
    edge
    for x in (0.0, 5e-324, 2.2250738585072014e-308, 9.99999999999e-5, 9.999999999995e-5, 1e-4,
              9.9999999999995, 10.0, 99999999999.95, 999999999999.5, 1e12, 1e16)
    for edge in (x, float(np.nextafter(x, -np.inf)), float(np.nextafter(x, np.inf)))
] + [math.inf, math.nan]

g12_values = st.one_of(
    # any float64, and those of fixed notation, from their bit patterns
    st.integers(-(2**63), 2**63 - 1).map(_float_from_bits),
    st.integers(_bits(1e-5), _bits(1e13)).map(_float_from_bits),
    # exact binary values, many of them 12-digit ties
    st.builds(lambda k, j: (k + 0.5) * 2.0**-j, st.integers(0, 2**52), st.integers(0, 60)),
    # the nearest floats to 12-digit ties, which are not ties
    st.builds(lambda k, p: (k + 0.5) / 10.0**p, st.integers(10**11, 10**12 - 1), st.integers(0, 15)),
    st.sampled_from(_G12_EDGES),
).flatmap(lambda x: st.sampled_from([x, -x]))

int64_values = st.one_of(st.integers(-(2**63), 2**63 - 1), st.integers(-99, 99),
                         st.sampled_from([-(2**63), 2**63 - 1, 0, 9999, 10000, -10000]))


def _numpy_csv(row_format, *columns, rows=3):
    """`data._csv` of ``columns`` in pieces of ``rows`` rows."""
    with mock.patch.object(data, "_WRITE_ROWS", rows):
        return "".join(data._csv("", row_format, *columns))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(g12_values, min_size=1, max_size=40))
def test_g12_cells_are_the_bytes_of_python_formatting(values):
    """Formatted in numpy, every float64 gets the bytes of ``"%.12g" % x``."""
    column = np.array(values)
    assert _numpy_csv("%.12g\n", column) == "".join("%.12g\n" % x for x in values)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.tuples(int64_values, g12_values), min_size=1, max_size=40))
def test_int_cells_are_the_bytes_of_python_formatting(rows):
    """Formatted in numpy, every int64 gets the bytes of ``"%d" % i``, also
    where the digit count changes inside one piece and next to a float."""
    ids = np.array([i for i, _ in rows], dtype=np.int64)
    values = np.array([x for _, x in rows])
    assert _numpy_csv("%d\n", ids) == "".join("%d\n" % i for i, _ in rows)
    assert _numpy_csv("%d,%.12g\n", ids, values) == "".join("%d,%.12g\n" % row for row in rows)
