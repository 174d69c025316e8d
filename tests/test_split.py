"""The large likelihood passes split across CPUs without changing a bit.

``pch`` runs a pass over more than ``SPLIT_ELEMENTS`` elements in one part
per CPU. These tests lower the threshold to zero, so that small samples
split, force 1, 2 and 3 parts, and require every output to equal the
one-part run's bit for bit, leave-one-out stacks and refits included. They
also check which passes must stay whole, the pool across a fork, and
numpy's error state inside the parts.
"""

import math
import multiprocessing
import os
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from pseudosurv import (
    DegenerateInterval,
    PseudosurvError,
    fit_pch,
    interval_dataset,
    pseudo_alpha,
    pseudo_rmst,
    pseudo_survival,
)
from pseudosurv import jackknife, pch
from pseudosurv.fitting import newton_prepared
from pseudosurv.pch import CutGrid, loglik_parts, prepare_likelihood, score_products
from pseudosurv.simulate import ScenarioConfig, generate

CASES = ["ic1", "ic2", "exact records", "one piece", "all right-censored"]
PREPARED = ("left_piece", "diff", "interval_rows", "class_bounds", "class_sizes", "classes",
            "exact_rows", "exact_piece", "expo_sum", "exact_counts")


class _Counting:
    """A thread pool that counts the parts submitted to it."""

    def __init__(self):
        self.pool, self.submitted = ThreadPoolExecutor(3), 0

    def submit(self, *args):
        self.submitted += 1
        return self.pool.submit(*args)


@pytest.fixture
def parts(monkeypatch):
    """force(P) makes every pass split into P parts, on a counting pool of
    more threads than this machine may have cores, switching often."""
    counting = _Counting()
    monkeypatch.setattr(pch, "_POOL", {os.getpid(): counting})

    def force(P):
        monkeypatch.setattr(pch, "SPLIT_ELEMENTS", 0)
        monkeypatch.setattr(pch, "_cpus", lambda: P)
        return counting

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield force
    finally:
        sys.setswitchinterval(interval)
        counting.pool.shutdown()


def _sample(case):
    if case in ("ic1", "ic2"):
        config = ScenarioConfig(case, n=300 if case == "ic1" else 1000, seed=3)
        return generate(config), CutGrid(config.cuts)
    rng = np.random.default_rng(11)
    left = rng.exponential(2.0, 400)
    right = left + rng.exponential(1.0, 400)
    if case == "exact records":
        right[::3] = left[::3]
        right[1::5] = math.inf
        return interval_dataset(left, right), CutGrid((0.5, 1.0, 2.0, 4.0))
    if case == "one piece":
        return interval_dataset(left, right), CutGrid(())
    return interval_dataset(left, np.full(400, math.inf)), CutGrid((1.0, 3.0))


def _outputs(ds, grid):
    prep = prepare_likelihood(ds, grid)
    K = grid.K
    alpha = np.linspace(0.2, 0.6, K)
    out = {f"prepared {field}": getattr(prep, field) for field in PREPARED}
    out["loglik_parts"] = loglik_parts(alpha, prep)
    out["loglik_parts of two rows"] = loglik_parts(np.stack([alpha, 1.5 * alpha]), prep)
    out["score_products K-vector"] = score_products(alpha, prep, np.arange(1.0, K + 1))
    out["score_products K x M"] = score_products(alpha, prep, np.arange(3.0 * K).reshape(K, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # identifiability advice
        try:
            fit = fit_pch(ds, grid)
        except PseudosurvError as exc:
            out["fit error"] = repr(exc)
            return out
    out.update(rates=fit.model.rates, iterations=fit.iterations, trace=fit.loglik_trace,
               info=fit.info, rmst=pseudo_rmst(fit, ds, 4.0).values,
               survival=pseudo_survival(fit, ds, 2.0).values, alpha=pseudo_alpha(fit, ds))
    return out


def _assert_identical(expected, got):
    assert expected.keys() == got.keys()
    for name in expected:
        a, b = expected[name], got[name]
        for x, y in zip(a, b) if isinstance(a, tuple) else [(a, b)]:
            x, y = np.asarray(x), np.asarray(y)
            assert np.array_equal(x, y), name
            assert (x.dtype, x.tobytes()) == (y.dtype, y.tobytes()), name


def test_split_threshold_keeps_jackknife_blocks_whole():
    assert pch.SPLIT_ELEMENTS > jackknife.BLOCK_ELEMENTS


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("P", [1, 2, 3])
def test_outputs_do_not_depend_on_the_number_of_parts(parts, case, P):
    ds, grid = _sample(case)
    whole = _outputs(ds, grid)
    counting = parts(P)
    _assert_identical(whole, _outputs(ds, grid))
    assert (counting.submitted > 0) == (P > 1)


def test_one_class_keeps_the_kernel_whole(parts):
    ds, grid = _sample("one piece")
    prep = prepare_likelihood(ds, grid)
    alpha = np.array([[0.4]])
    dlam = pch._increments(alpha, prep)
    whole = pch._kernel(alpha, dlam.copy(), prep)
    counting = parts(3)
    _assert_identical({"kernel": whole}, {"kernel": pch._kernel(alpha, dlam, prep)})
    assert counting.submitted == 0


def _leave_one_out(ds, grid):
    prep = prepare_likelihood(ds, grid)
    stack = prep.leave_out(np.arange(0, ds.n, 7))
    rates = np.tile(np.linspace(0.1, 0.3, grid.K), (stack.left_out.size, 1))
    out = {"stack": loglik_parts(rates, stack)}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # identifiability advice
        fit = fit_pch(ds, grid)
    for subject in (0, 1, ds.n - 1):
        refit = newton_prepared(prep.leave_out([subject]), fit.model.rates[None], 1e-8, 200)
        out[f"refit {subject}"] = (refit.rates, refit.iterations,
                                   np.array([repr(e) for e in refit.errors]))
    return out


@pytest.mark.parametrize("P", [1, 2, 3])
def test_a_leave_one_out_stack_splits_like_one_likelihood(parts, P):
    ds, grid = _sample("ic1")
    whole = _leave_one_out(ds, grid)
    counting = parts(P)
    _assert_identical(whole, _leave_one_out(ds, grid))
    assert (counting.submitted > 0) == (P > 1)


@pytest.mark.parametrize("P", [1, 2, 3])
def test_a_left_out_bracket_adds_nothing_whatever_its_increment(parts, P):
    """A stack row's left-out bracket has no terms in the kernel's sums, so
    the increment the kernel is handed for it changes no bit of its output."""
    ds, grid = _sample("exact records")
    stack = prepare_likelihood(ds, grid).leave_out(np.arange(0, ds.n, 7))
    B = stack.left_out.size
    rates = np.linspace(0.1, 0.3, grid.K) * np.linspace(1.0, 2.0, B)[:, None]
    counting = parts(P)
    dlam = pch._increments(rates, stack)
    as_computed = {"kernel": pch._kernel(rates, dlam.copy(), stack)}
    rows = np.flatnonzero(stack.left_out >= 0)
    assert 0 < rows.size < B  # rows without a bracket to leave out, too
    for value in (0.0, -1.0, math.nan):
        overwritten = dlam.copy()
        overwritten[stack.left_out[rows], rows] = value
        _assert_identical(as_computed, {"kernel": pch._kernel(rates, overwritten, stack)})
    assert (counting.submitted > 0) == (P > 1)


@pytest.mark.parametrize("P", [1, 2, 3])
def test_a_degenerate_bracket_is_named_for_any_number_of_parts(parts, P):
    # record 37's bracket is so narrow that its increment underflows to zero
    left = np.linspace(0.5, 5.0, 60)
    right = left + 1.0
    right[37] = float(np.nextafter(left[37], np.inf))
    prep = prepare_likelihood(interval_dataset(left, right), CutGrid((1.0, 3.0)))
    rates = np.full(3, 1e-310)
    parts(P)
    for evaluate in (lambda: loglik_parts(rates, prep),
                     lambda: score_products(rates, prep, np.ones(3))):
        with pytest.raises(DegenerateInterval, match="record 37:"):
            evaluate()


def test_the_callers_error_state_reaches_the_parts(parts):
    """A Newton trial whose rates overflow, as ``newton_prepared`` makes one:
    its kernel call ignores overflow in every part, while the suite turns
    each RuntimeWarning into an error."""
    left = np.linspace(0.5, 9.0, 400)
    prep = prepare_likelihood(interval_dataset(left, left + 2.5), CutGrid((1.0, 3.0)))
    counting = parts(2)
    trial = np.array([[0.3, 0.3, 1e308]])  # a bracket's 2.5 * 1e308 overflows
    with np.errstate(over="ignore", invalid="ignore"):
        loglik = pch._kernel(trial, pch._increments(trial, prep), prep)[0]
    assert not np.isfinite(loglik[0])
    assert counting.submitted > 0
    with pytest.raises(RuntimeWarning, match="overflow"):
        pch._increments(trial, prep)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_runs_split_passes(monkeypatch):
    ds, grid = _sample("ic1")
    prep = prepare_likelihood(ds, grid)
    monkeypatch.setattr(pch, "SPLIT_ELEMENTS", 0)
    monkeypatch.setattr(pch, "_cpus", lambda: 2)
    alpha = np.full(grid.K, 0.3)
    expected = loglik_parts(alpha, prep)[0]  # the parent's pool now has a thread
    assert os.getpid() in pch._POOL

    def child():
        assert loglik_parts(alpha, prep)[0] == expected

    process = multiprocessing.get_context("fork").Process(target=child)
    process.start()
    process.join(timeout=30)
    hung = process.is_alive()
    if hung:
        process.kill()
        process.join()
    assert not hung and process.exitcode == 0
