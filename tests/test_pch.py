"""Piecewise-hazard evaluation, likelihood derivatives, and closed forms.

The closed-form restricted-mean routines are checked against adaptive
quadrature, and every analytic derivative against central finite
differences, so the algebra and the numerics validate each other through
independent routes. A single record's log-density, score and Hessian are
the likelihood kernel evaluated on a one-record dataset.
"""

import math
import warnings

import numpy as np
import pytest
from scipy import integrate

from pseudosurv import (
    CutGrid,
    DegenerateInterval,
    EmptyInput,
    InvalidTau,
    InvalidTime,
    PchModel,
    check_conditions,
    evaluate,
    grad_cum_hazard,
    interval_dataset,
    rmst_closed_form,
    rmst_gradient,
)
from pseudosurv.data import EXACT, LEFT_CENSORED, RIGHT_CENSORED, STRICT_INTERVAL
from pseudosurv.pch import (
    loglik_parts,
    prepare_likelihood,
    rmst_rows,
    score_matrix,
    score_products,
    survival_rows,
)
from pseudosurv.simulate import ScenarioConfig, generate


def _random_model(rng, max_pieces=5):
    K = int(rng.integers(1, max_pieces + 1))
    cuts = tuple(np.sort(rng.uniform(0.3, 6.0, K - 1)))
    rates = rng.uniform(0.05, 3.0, K)
    return PchModel(CutGrid(cuts), rates)


def _random_record(rng, model):
    """A random (left, right) bracket of one of the four censoring classes."""
    kind = rng.integers(4)
    span = (model.grid.cuts[-1] if model.grid.cuts else 2.0) + 1.0
    a = float(rng.uniform(0.0, span))
    if kind == 0:
        return a, a + float(rng.uniform(0.05, 2.0))
    if kind == 1:
        return a, math.inf
    if kind == 2:
        return 0.0, a + 0.05
    return a, a


def _dataset(records):
    return interval_dataset([a for a, _ in records], [b for _, b in records])


def _one_record(model, record):
    """The kernel's (log-density, score, Hessian) of one record at the model's rates.

    The log-density and Hessian come from ``loglik_parts``, the score from
    ``score_matrix``.
    """
    prep = prepare_likelihood(_dataset([record]), model.grid)
    ll, _, hess = loglik_parts(model.rates, prep)
    return ll, score_matrix(model.rates, prep)[0], hess


def _log_density(model, record):
    return _one_record(model, record)[0]


def _score(model, record):
    return _one_record(model, record)[1]


def _hessian(model, record):
    return _one_record(model, record)[2]


def _quad_rmst(model, tau):
    breaks = [c for c in model.grid.cuts if c < tau]
    if math.isinf(tau):
        last = model.grid.cuts[-1] if model.grid.cuts else 1.0
        head, _ = integrate.quad(
            lambda t: float(model.survival(t)), 0.0, last,
            points=breaks, limit=200,
        )
        tail, _ = integrate.quad(lambda t: float(model.survival(t)), last, np.inf, limit=200)
        return head + tail
    value, _ = integrate.quad(
        lambda t: float(model.survival(t)), 0.0, tau, points=breaks, limit=200
    )
    return value


# ---------------------------------------------------------------------------
# Grid and evaluation


def test_cut_grid_validation():
    with pytest.raises(ValueError):
        CutGrid((2.0, 1.0))
    with pytest.raises(ValueError):
        CutGrid((0.0, 1.0))
    with pytest.raises(ValueError):
        CutGrid((1.0, math.inf))


def test_cut_grid_piece_boundaries_are_left_open_right_closed():
    grid = CutGrid((1.0, 2.0))
    assert grid.piece_index(1.0) == 0
    assert grid.piece_index(1.5) == 1
    assert grid.piece_index(2.0) == 1
    assert grid.piece_index(2.5) == 2
    assert grid.piece_index(0.0) == 0


def test_exposure_partitions_the_interval():
    grid = CutGrid((1.0,))
    np.testing.assert_allclose(grid.exposure(0.5), [0.5, 0.0])
    rng = np.random.default_rng(0)
    for _ in range(20):
        model = _random_model(rng)
        t = float(rng.uniform(0, 10))
        assert grad_cum_hazard(model, t).sum() == pytest.approx(t, abs=1e-12)


def test_model_rejects_bad_rates():
    grid = CutGrid((1.0,))
    with pytest.raises(ValueError):
        PchModel(grid, [1.0])
    with pytest.raises(ValueError):
        PchModel(grid, [1.0, -0.5])
    with pytest.raises(ValueError):
        PchModel(grid, [1.0, math.inf])


def test_evaluate_self_consistency():
    m = PchModel(CutGrid((1.0, 2.0)), [0.5, 1.0, 0.25])
    ev = evaluate(m, 1.5)
    assert ev.hazard == 1.0
    assert ev.cum_hazard == pytest.approx(1.0, abs=1e-15)
    assert ev.survival == math.exp(-ev.cum_hazard)
    t = np.array([0.0, 0.7, 1.3, 5.0])
    batch = evaluate(m, t)
    np.testing.assert_array_equal(batch.survival, np.exp(-batch.cum_hazard))


def test_evaluate_rejects_invalid_times():
    m = PchModel(CutGrid(()), [1.0])
    for bad in (-1.0, math.inf, math.nan):
        with pytest.raises(InvalidTime):
            evaluate(m, bad)
        with pytest.raises(InvalidTime):
            grad_cum_hazard(m, bad)


# ---------------------------------------------------------------------------
# Restricted-mean closed forms vs quadrature


def test_rmst_exponential_special_cases():
    m = PchModel(CutGrid(()), [0.5])
    assert rmst_closed_form(m, 2.0) == pytest.approx(2 * (1 - math.exp(-1)), abs=1e-12)
    assert rmst_closed_form(m, math.inf) == pytest.approx(2.0, abs=1e-12)


def test_rmst_two_piece_hand_value():
    m = PchModel(CutGrid((1.0,)), [1.0, 0.5])
    expected = 1 + math.exp(-1) - 2 * math.exp(-2)  # piecewise integral by hand
    assert rmst_closed_form(m, 3.0) == pytest.approx(expected, abs=1e-12)


def test_rmst_matches_quadrature_randomized():
    rng = np.random.default_rng(1)
    for _ in range(40):
        model = _random_model(rng)
        top = model.grid.cuts[-1] if model.grid.cuts else 1.5
        for tau in (0.2, float(rng.uniform(0.3, top + 2.0)), math.inf):
            assert rmst_closed_form(model, tau) == pytest.approx(
                _quad_rmst(model, tau), abs=1e-8
            )


def test_rmst_handles_tiny_rates_via_series():
    m = PchModel(CutGrid((1.0,)), [1e-9, 0.5])
    assert rmst_closed_form(m, 1.0) == pytest.approx(_quad_rmst(m, 1.0), abs=1e-10)


def test_rmst_rejects_nonpositive_tau():
    m = PchModel(CutGrid(()), [1.0])
    for bad in (0.0, -1.0, math.nan):
        with pytest.raises(InvalidTau):
            rmst_closed_form(m, bad)
        with pytest.raises(InvalidTau):
            rmst_gradient(m, bad)


def test_rmst_gradient_hand_value():
    # single exponential: the sensitivity is the integral of t exp(-t)
    m = PchModel(CutGrid(()), [1.0])
    assert rmst_gradient(m, 1.0)[0] == pytest.approx(1 - 2 * math.exp(-1), abs=1e-12)


def test_rmst_gradient_zero_beyond_tau():
    m = PchModel(CutGrid((1.0, 2.0)), [0.5, 0.5, 0.5])
    g = rmst_gradient(m, 1.5)
    assert g[2] == 0.0
    assert np.all(g[:2] > 0)


def test_rmst_gradient_vanishes_as_tau_shrinks():
    m = PchModel(CutGrid((1.0,)), [1.0, 2.0])
    assert np.max(rmst_gradient(m, 1e-9)) < 1e-17


def test_rmst_gradient_matches_finite_differences():
    """The components equal minus the derivative of the restricted mean."""
    rng = np.random.default_rng(2)
    for _ in range(40):
        model = _random_model(rng)
        top = model.grid.cuts[-1] if model.grid.cuts else 1.5
        tau = float(rng.uniform(0.3, top + 2.0))
        g = rmst_gradient(model, tau)
        for k in range(model.grid.K):
            h = 1e-6 * (1.0 + model.rates[k])
            up = model.rates.copy()
            up[k] += h
            down = model.rates.copy()
            down[k] -= h
            fd = (
                rmst_closed_form(PchModel(model.grid, up), tau)
                - rmst_closed_form(PchModel(model.grid, down), tau)
            ) / (2 * h)
            assert -fd == pytest.approx(g[k], abs=1e-6 * (1.0 + abs(g[k])))


def test_rmst_gradient_unrestricted_last_piece():
    m = PchModel(CutGrid((1.0,)), [1.0, 0.5])
    g = rmst_gradient(m, math.inf)
    h = 1e-7
    for k in range(2):
        up = m.rates.copy()
        up[k] += h
        down = m.rates.copy()
        down[k] -= h
        fd = (
            rmst_closed_form(PchModel(m.grid, up), math.inf)
            - rmst_closed_form(PchModel(m.grid, down), math.inf)
        ) / (2 * h)
        assert -fd == pytest.approx(g[k], rel=1e-6)


@pytest.mark.parametrize("K", [1, 2, 5])
def test_stacked_rows_match_the_scalar_model(K):
    # rows of rates as the leave-one-out oracle evaluates them, one NaN row
    # standing for a failed refit
    rng = np.random.default_rng(40 + K)
    grid = CutGrid(tuple(np.sort(rng.uniform(0.3, 6.0, K - 1))))
    rates = rng.uniform(0.05, 3.0, (6, K))
    rates[2] = np.nan
    fine = np.arange(6) != 2
    first_cut = grid.cuts[0] if grid.cuts else 1.0
    for tau in (math.inf, 0.5 * first_cut, 3.0, 9.0):
        t = tau if math.isfinite(tau) else 9.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rmst = rmst_rows(grid, rates, tau)
            surv = survival_rows(grid, rates, t)
        assert np.isnan(rmst[2]) and np.isnan(surv[2])
        models = [PchModel(grid, row) for row in rates[fine]]
        np.testing.assert_allclose(
            rmst[fine], [rmst_closed_form(m, tau) for m in models], rtol=1e-15, atol=0
        )
        np.testing.assert_allclose(
            surv[fine], [float(m.survival(t)) for m in models], rtol=1e-15, atol=0
        )


# ---------------------------------------------------------------------------
# Per-record log-density, score, Hessian from one-record kernels


def test_log_density_hand_values():
    m = PchModel(CutGrid(()), [1.0])
    assert _log_density(m, (1.0, 2.0)) == pytest.approx(
        math.log(math.exp(-1) - math.exp(-2)), abs=1e-12
    )
    assert _log_density(m, (3.0, math.inf)) == pytest.approx(-3.0)
    half = PchModel(CutGrid(()), [0.5])
    assert _log_density(half, (2.0, 2.0)) == pytest.approx(
        math.log(0.5) - 1.0, abs=1e-12
    )


def test_score_hand_values():
    m = PchModel(CutGrid((1.5,)), [1.0, 1.0])
    np.testing.assert_allclose(
        _score(m, (1.0, 2.0)),
        [-1 + 0.5 / (math.e - 1), 0.5 / (math.e - 1)],
        atol=1e-12,
    )
    one = PchModel(CutGrid(()), [2.0])
    np.testing.assert_allclose(_score(one, (3.0, math.inf)), [-3.0])


def test_hessian_hand_values():
    one = PchModel(CutGrid(()), [0.5])
    np.testing.assert_allclose(_hessian(one, (2.0, 2.0)), [[-4.0]])
    m = PchModel(CutGrid((1.0,)), [1.0, 2.0])
    np.testing.assert_array_equal(
        _hessian(m, (3.0, math.inf)), np.zeros((2, 2))
    )


def test_score_matches_finite_differences_randomized():
    rng = np.random.default_rng(3)
    checked = 0
    while checked < 60:
        model = _random_model(rng)
        record = _random_record(rng, model)
        s = _score(model, record)
        for k in range(model.grid.K):
            h = 1e-6 * (1.0 + model.rates[k])
            up = model.rates.copy()
            up[k] += h
            down = model.rates.copy()
            down[k] -= h
            fd = (
                _log_density(PchModel(model.grid, up), record)
                - _log_density(PchModel(model.grid, down), record)
            ) / (2 * h)
            assert fd == pytest.approx(s[k], abs=1e-6 * (1.0 + abs(s[k])))
        checked += 1


def test_hessian_matches_finite_differences():
    rng = np.random.default_rng(4)
    for _ in range(60):
        model = _random_model(rng)
        record = _random_record(rng, model)
        H = _hessian(model, record)
        for k in range(model.grid.K):
            h = 1e-5 * (1.0 + model.rates[k])
            up = model.rates.copy()
            up[k] += h
            down = model.rates.copy()
            down[k] -= h
            fd = (
                _score(PchModel(model.grid, up), record)
                - _score(PchModel(model.grid, down), record)
            ) / (2 * h)
            np.testing.assert_allclose(H[k], fd, atol=1e-4)


def test_degenerate_interval_raises():
    # the bracket is so deep in the tail that its mass underflows to zero
    m = PchModel(CutGrid(()), [1e-308])
    prep = prepare_likelihood(interval_dataset([1.0], [float(np.nextafter(1.0, 2.0))]), m.grid)
    with pytest.raises(DegenerateInterval):
        loglik_parts(m.rates, prep)
    with pytest.raises(DegenerateInterval):
        score_matrix(m.rates, prep)


# ---------------------------------------------------------------------------
# Identifiability diagnostics


def test_conditions_flag_piece_without_finite_bracket():
    ds = interval_dataset([0.5, 2.0], [0.8, math.inf])
    report = check_conditions(ds, CutGrid((1.0,)))
    assert (2, 1) in report.violations
    assert not report.ok
    assert "piece 2" in report.describe()


def test_conditions_flag_piece_without_exceeding_left_endpoint():
    ds = interval_dataset([0.0, 0.0], [0.5, 2.0])
    report = check_conditions(ds, CutGrid((1.0,)))
    assert (1, 2) in report.violations


@pytest.mark.parametrize("call", [check_conditions, prepare_likelihood])
def test_an_empty_dataset_has_no_conditions_or_likelihood(call):
    with pytest.raises(EmptyInput):
        call(interval_dataset([], []), CutGrid((1.0,)))


def test_conditions_pass_on_generated_visit_data():
    ds = generate(ScenarioConfig("ic1", n=500, seed=0))
    report = check_conditions(ds, CutGrid((4.0, 5.0, 6.0, 7.0)))
    assert report.ok
    assert report.describe() == "all pieces identifiable"


# ---------------------------------------------------------------------------
# The kernel on a sample is the sum of its one-record kernels


def test_loglik_parts_matches_per_record_sums():
    rng = np.random.default_rng(6)
    model = _random_model(rng, max_pieces=4)
    records = [_random_record(rng, model) for _ in range(40)]
    classes = _dataset(records).classes
    # the mixed sample, then samples missing whole censoring classes
    samples = [
        records,
        [r for r, c in zip(records, classes) if c == RIGHT_CENSORED],
        [r for r, c in zip(records, classes) if c == EXACT],
        [r for r, c in zip(records, classes) if c != EXACT],
    ]
    for sample in samples:
        ds = _dataset(sample)
        prep = prepare_likelihood(ds, model.grid)
        ll, grad, hess = loglik_parts(model.rates, prep)
        singles = [_one_record(model, r) for r in sample]
        assert ll == pytest.approx(sum(one[0] for one in singles), abs=1e-10)
        np.testing.assert_allclose(
            grad, np.sum([one[1] for one in singles], axis=0), atol=1e-10
        )
        np.testing.assert_allclose(
            hess, np.sum([one[2] for one in singles], axis=0), atol=1e-10
        )
        np.testing.assert_allclose(
            score_matrix(model.rates, prep),
            [one[1] for one in singles],
            atol=1e-12,
        )


def test_leave_out_by_weight_matches_subset_dataset():
    rng = np.random.default_rng(7)
    model = _random_model(rng, max_pieces=3)
    records = [_random_record(rng, model) for _ in range(15)]
    ds = _dataset(records)
    prep = prepare_likelihood(ds, model.grid)
    classes = ds.classes
    # one left-out subject of every censoring class, each against its own rates
    block = [classes.index(c) for c in (STRICT_INTERVAL, RIGHT_CENSORED, EXACT, LEFT_CENSORED)]
    rates = model.rates * rng.uniform(0.5, 2.0, (len(block), model.grid.K))
    stack = prep.leave_out(block)
    assert np.shares_memory(stack.expo_left, prep.expo_left)
    assert np.shares_memory(stack.diff, prep.diff)
    stacked = loglik_parts(rates, stack)
    for b, l in enumerate(block):
        kept = [r for i, r in enumerate(records) if i != l]
        sub = _dataset(kept)
        direct = prepare_likelihood(sub, model.grid)
        for a, rows in zip(loglik_parts(rates[b], direct), stacked):
            np.testing.assert_allclose(a, rows[b], rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# The piece-index kernel against the n x K exposure formulas it replaced


def _dense_parts(alpha, ds, grid, left_out=None):
    """(loglik, score, Hessian, per-record scores) from n x K exposure rows.

    The exposures of both endpoints come from ``grid.exposure``; a bracket's
    increment is its exposure difference times the rates. Subject
    ``left_out`` weighs zero in the sums.
    """
    left, right = ds.left, ds.right
    keep = np.ones(ds.n)
    if left_out is not None:
        keep[left_out] = 0.0
    expo = grid.exposure(left)
    exact = left == right
    bracket = np.isfinite(right) & ~exact
    diff = grid.exposure(right[bracket]) - expo[bracket]
    dlam = diff @ alpha
    piece = grid.piece_index(left[exact])
    counts = np.bincount(piece, weights=keep[exact], minlength=grid.K)
    w = keep[bracket]
    loglik = (-(keep @ expo) @ alpha + np.sum(w * np.log(-np.expm1(-dlam)))
              + counts @ np.log(alpha))
    scores = -expo
    scores[bracket] += diff / np.expm1(dlam)[:, None]
    scores[np.flatnonzero(exact), piece] += 1.0 / alpha[piece]
    curve = w * np.exp(-dlam) / np.expm1(-dlam) ** 2
    hess = -(curve[:, None] * diff).T @ diff - np.diag(counts / alpha**2)
    return loglik, keep @ scores, hess, scores


def _kernel_sample(rng, K, n=240):
    """Brackets, right-censored, exact and left-censored records on a grid of
    K pieces, with endpoints on cut points and at 0, and brackets within one
    piece and across many."""
    cuts = np.sort(rng.choice(np.arange(1, 400) / 40.0, K - 1, replace=False))
    points = np.concatenate([cuts, rng.uniform(0.0, 12.0, 40), [0.0]])
    p, q = rng.choice(points, n), rng.choice(points, n)
    lo, hi = np.minimum(p, q), np.maximum(p, q)
    hi = np.where(hi > lo, hi, lo + rng.uniform(0.01, 0.3, n))
    kind = rng.integers(4, size=n)
    left = np.choose(kind, [lo, lo, hi, np.zeros(n)])
    right = np.choose(kind, [hi, np.full(n, math.inf), hi, hi])
    return interval_dataset(left, right), CutGrid(tuple(cuts))


@pytest.mark.parametrize("K", [1, 5, 16, 50])
def test_kernel_matches_dense_exposure_formulas(K):
    rng = np.random.default_rng(60 + K)
    ds, grid = _kernel_sample(rng, K)
    alpha = rng.uniform(0.05, 2.0, K)
    prep = prepare_likelihood(ds, grid)
    loglik, grad, hess, scores = _dense_parts(alpha, ds, grid)
    ll, g, h = loglik_parts(alpha, prep)
    assert ll == pytest.approx(loglik, rel=1e-13)
    scale = np.abs(scores).sum(axis=0)
    np.testing.assert_allclose(g, grad, rtol=0, atol=1e-13 * scale.max())
    np.testing.assert_allclose(h, hess, rtol=1e-12, atol=1e-13 * np.abs(hess).max())
    np.testing.assert_allclose(score_matrix(alpha, prep), scores, rtol=1e-12, atol=1e-12)
    D = rng.normal(size=(K, 3))
    np.testing.assert_allclose(score_products(alpha, prep, D), scores @ D, rtol=1e-12,
                               atol=1e-12 * np.abs(scores @ D).max())
    np.testing.assert_allclose(score_products(alpha, prep, D[:, 0]), scores @ D[:, 0],
                               rtol=1e-12, atol=1e-12 * np.abs(scores @ D[:, 0]).max())


@pytest.mark.parametrize("K", [1, 5, 16, 50])
def test_leave_out_stack_matches_dense_exposure_formulas(K):
    rng = np.random.default_rng(70 + K)
    ds, grid = _kernel_sample(rng, K)
    prep = prepare_likelihood(ds, grid)
    exact = ds.left == ds.right
    bracket = np.isfinite(ds.right) & ~exact
    # subjects of every class, each against its own rates
    block = np.concatenate([np.flatnonzero(c)[:3] for c in (exact, bracket, np.isinf(ds.right))])
    rates = rng.uniform(0.05, 2.0, (block.size, K))
    stacked = loglik_parts(rates, prep.leave_out(block))
    for b, l in enumerate(block):
        loglik, grad, hess, scores = _dense_parts(rates[b], ds, grid, left_out=l)
        assert stacked[0][b] == pytest.approx(loglik, rel=1e-13)
        np.testing.assert_allclose(stacked[1][b], grad, rtol=0,
                                   atol=1e-13 * np.abs(scores).sum(axis=0).max())
        np.testing.assert_allclose(stacked[2][b], hess, rtol=1e-12,
                                   atol=1e-13 * np.abs(hess).max())


def test_exposure_sum_is_summed_pairwise():
    """Visits at fixed offsets within each piece: a running sum of 10^5
    exposures rounds the same way at every step and drifts about 1e-12,
    while the hoisted sum stays within 1e-14 of the exactly rounded one."""
    rng = np.random.default_rng(11)
    grid = CutGrid((1.0, 2.0, 3.0))
    left = rng.choice([0.1, 1.1, 2.1, 3.1, 4.1], 100_000)
    ds = interval_dataset(left, np.where(rng.uniform(size=left.size) < 0.5, left + 0.5, math.inf))
    columns = grid.exposure(ds.left).T
    exact = np.array([math.fsum(column) for column in columns])
    running = np.array([np.cumsum(column)[-1] for column in columns])
    assert np.max(np.abs(running - exact) / exact) > 1e-13
    hoisted = prepare_likelihood(ds, grid).expo_sum
    np.testing.assert_allclose(hoisted, exact, rtol=1e-14, atol=0)
    # pieces that no left endpoint reaches, between the others and after them
    grid = CutGrid((0.05, 1.0, 2.0, 3.0, 3.05, 9.0, 10.0))
    exact = [math.fsum(column) for column in grid.exposure(ds.left).T]
    np.testing.assert_allclose(prepare_likelihood(ds, grid).expo_sum, exact, rtol=1e-14, atol=0)
