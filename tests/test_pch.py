"""Piecewise-hazard evaluation, likelihood derivatives, and closed forms.

The closed-form restricted-mean routines are checked against adaptive
quadrature, and every analytic derivative against central finite
differences, so the algebra and the numerics validate each other through
independent routes.
"""

import math

import numpy as np
import pytest
from scipy import integrate

from pseudosurv import (
    CutGrid,
    DegenerateInterval,
    IntervalRecord,
    InvalidTau,
    InvalidTime,
    PchModel,
    check_conditions,
    evaluate,
    grad_cum_hazard,
    hessian,
    interval_dataset,
    log_density,
    rmst_closed_form,
    rmst_gradient,
    score,
)
from pseudosurv.data import EXACT, LEFT_CENSORED, RIGHT_CENSORED, STRICT_INTERVAL
from pseudosurv.pch import loglik_parts, prepare_likelihood, score_matrix
from pseudosurv.simulate import ScenarioConfig, generate


def _random_model(rng, max_pieces=5):
    K = int(rng.integers(1, max_pieces + 1))
    cuts = tuple(np.sort(rng.uniform(0.3, 6.0, K - 1)))
    rates = rng.uniform(0.05, 3.0, K)
    return PchModel(CutGrid(cuts), rates)


def _random_record(rng, model):
    kind = rng.integers(4)
    span = (model.grid.cuts[-1] if model.grid.cuts else 2.0) + 1.0
    a = float(rng.uniform(0.0, span))
    if kind == 0:
        return IntervalRecord(a, a + float(rng.uniform(0.05, 2.0)))
    if kind == 1:
        return IntervalRecord(a, math.inf)
    if kind == 2:
        return IntervalRecord(0.0, a + 0.05)
    return IntervalRecord(a, a)


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


# ---------------------------------------------------------------------------
# Per-record log-density, score, Hessian


def test_log_density_hand_values():
    m = PchModel(CutGrid(()), [1.0])
    assert log_density(m, IntervalRecord(1.0, 2.0)) == pytest.approx(
        math.log(math.exp(-1) - math.exp(-2)), abs=1e-12
    )
    assert log_density(m, IntervalRecord(3.0, math.inf)) == pytest.approx(-3.0)
    half = PchModel(CutGrid(()), [0.5])
    assert log_density(half, IntervalRecord(2.0, 2.0)) == pytest.approx(
        math.log(0.5) - 1.0, abs=1e-12
    )


def test_score_hand_values():
    m = PchModel(CutGrid((1.5,)), [1.0, 1.0])
    np.testing.assert_allclose(
        score(m, IntervalRecord(1.0, 2.0)),
        [-1 + 0.5 / (math.e - 1), 0.5 / (math.e - 1)],
        atol=1e-12,
    )
    one = PchModel(CutGrid(()), [2.0])
    np.testing.assert_allclose(score(one, IntervalRecord(3.0, math.inf)), [-3.0])


def test_hessian_hand_values():
    one = PchModel(CutGrid(()), [0.5])
    np.testing.assert_allclose(hessian(one, IntervalRecord(2.0, 2.0)), [[-4.0]])
    m = PchModel(CutGrid((1.0,)), [1.0, 2.0])
    np.testing.assert_array_equal(
        hessian(m, IntervalRecord(3.0, math.inf)), np.zeros((2, 2))
    )


def test_score_matches_finite_differences_randomized():
    rng = np.random.default_rng(3)
    checked = 0
    while checked < 60:
        model = _random_model(rng)
        record = _random_record(rng, model)
        s = score(model, record)
        for k in range(model.grid.K):
            h = 1e-6 * (1.0 + model.rates[k])
            up = model.rates.copy()
            up[k] += h
            down = model.rates.copy()
            down[k] -= h
            fd = (
                log_density(PchModel(model.grid, up), record)
                - log_density(PchModel(model.grid, down), record)
            ) / (2 * h)
            assert fd == pytest.approx(s[k], abs=1e-6 * (1.0 + abs(s[k])))
        checked += 1


def test_hessian_matches_finite_differences_and_is_symmetric():
    rng = np.random.default_rng(4)
    for _ in range(60):
        model = _random_model(rng)
        record = _random_record(rng, model)
        H = hessian(model, record)
        np.testing.assert_array_equal(H, H.T)
        for k in range(model.grid.K):
            h = 1e-5 * (1.0 + model.rates[k])
            up = model.rates.copy()
            up[k] += h
            down = model.rates.copy()
            down[k] -= h
            fd = (
                score(PchModel(model.grid, up), record)
                - score(PchModel(model.grid, down), record)
            ) / (2 * h)
            np.testing.assert_allclose(H[k], fd, atol=1e-4)


def test_degenerate_interval_raises():
    # the bracket is so deep in the tail that its mass underflows to zero
    m = PchModel(CutGrid(()), [1e-308])
    record = IntervalRecord(1.0, float(np.nextafter(1.0, 2.0)))
    with pytest.raises(DegenerateInterval):
        log_density(m, record)
    with pytest.raises(DegenerateInterval):
        score(m, record)
    with pytest.raises(DegenerateInterval):
        hessian(m, record)


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


def test_conditions_pass_on_generated_visit_data():
    ds = generate(ScenarioConfig("ic1", n=500, seed=0))
    report = check_conditions(ds, CutGrid((4.0, 5.0, 6.0, 7.0)))
    assert report.ok
    assert report.describe() == "all pieces identifiable"


# ---------------------------------------------------------------------------
# Vectorized kernel agrees with the per-record routines


def test_loglik_parts_matches_per_record_sums():
    rng = np.random.default_rng(6)
    model = _random_model(rng, max_pieces=4)
    records = [_random_record(rng, model) for _ in range(40)]
    # the mixed sample, then samples missing whole censoring classes
    samples = [
        records,
        [r for r in records if r.censoring_class == RIGHT_CENSORED],
        [r for r in records if r.censoring_class == EXACT],
        [r for r in records if r.censoring_class != EXACT],
    ]
    for sample in samples:
        ds = interval_dataset([r.left for r in sample], [r.right for r in sample])
        prep = prepare_likelihood(ds, model.grid)
        ll, grad, hess = loglik_parts(model.rates, prep)
        assert ll == pytest.approx(sum(log_density(model, r) for r in sample), abs=1e-10)
        np.testing.assert_allclose(
            grad, np.sum([score(model, r) for r in sample], axis=0), atol=1e-10
        )
        np.testing.assert_allclose(
            hess, np.sum([hessian(model, r) for r in sample], axis=0), atol=1e-10
        )
        np.testing.assert_allclose(
            score_matrix(model.rates, prep),
            [score(model, r) for r in sample],
            atol=1e-12,
        )


def test_leave_out_by_weight_matches_subset_dataset():
    rng = np.random.default_rng(7)
    model = _random_model(rng, max_pieces=3)
    records = [_random_record(rng, model) for _ in range(15)]
    ds = interval_dataset([r.left for r in records], [r.right for r in records])
    prep = prepare_likelihood(ds, model.grid)
    classes = [r.censoring_class for r in records]
    for cls in (STRICT_INTERVAL, RIGHT_CENSORED, EXACT, LEFT_CENSORED):
        l = classes.index(cls)
        kept = [r for i, r in enumerate(records) if i != l]
        sub = interval_dataset([r.left for r in kept], [r.right for r in kept])
        direct = prepare_likelihood(sub, model.grid)
        view = prep.leave_out(l)
        assert np.shares_memory(view.expo_left, prep.expo_left)
        assert np.shares_memory(view.diff, prep.diff)
        for a, b in zip(loglik_parts(model.rates, direct), loglik_parts(model.rates, view)):
            np.testing.assert_allclose(a, b, atol=1e-12)
