from datetime import date

import numpy as np
import pytest

from duotrader.alpha_fusion import Insight
from duotrader.errors import (
    DataAlignmentError,
    InsufficientDataError,
    ParameterError,
)
from duotrader.portfolio_bl import (
    COVARIANCE_RIDGE,
    BlConfig,
    ViewSet,
    build_views,
    equilibrium_returns,
    estimate_covariance,
    optimize_weights,
    posterior_returns,
)

DAY = date(2021, 5, 3)


def insight(symbol, direction, magnitude=0.02, confidence=0.5):
    return Insight(symbol, direction, magnitude, confidence, DAY, 21)


class TestEstimateCovariance:
    def test_constant_returns_zero_variance_pre_ridge(self):
        sigma = estimate_covariance({"A": np.full(10, 0.001)})
        assert sigma[0, 0] == pytest.approx(COVARIANCE_RIDGE, abs=1e-15)

    def test_identical_series_singular_pre_ridge(self):
        rng = np.random.default_rng(2)
        series = rng.normal(0, 0.01, 30)
        sigma = estimate_covariance({"A": series, "B": series.copy()})
        pre_ridge = sigma - COVARIANCE_RIDGE * np.eye(2)
        assert np.linalg.det(pre_ridge) == pytest.approx(0.0, abs=1e-12)
        corr = pre_ridge[0, 1] / np.sqrt(pre_ridge[0, 0] * pre_ridge[1, 1])
        assert corr == pytest.approx(1.0, abs=1e-12)

    def test_matches_brute_force_formula(self):
        # oracle: the covariance definition written out entry by entry
        rng = np.random.default_rng(3)
        windows = {s: rng.normal(0, 0.01, 40) for s in ("A", "B", "C")}
        sigma = estimate_covariance(windows)
        names = list(windows)
        for i, a in enumerate(names):
            for j, b in enumerate(names):
                x, y = windows[a], windows[b]
                brute = np.sum((x - x.mean()) * (y - y.mean())) / (len(x) - 1) * 252
                if i == j:
                    brute += COVARIANCE_RIDGE
                assert sigma[i, j] == pytest.approx(brute, abs=1e-12)

    def test_misaligned_windows(self):
        with pytest.raises(DataAlignmentError):
            estimate_covariance({"A": np.zeros(10), "B": np.zeros(9)})

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            estimate_covariance({"A": np.zeros(3), "B": np.zeros(3), "C": np.zeros(3)})


class TestEquilibriumReturns:
    def test_worked_example(self):
        # oracle: one matrix-vector product by hand
        sigma = np.eye(2) * 0.04
        pi = equilibrium_returns(sigma, np.array([0.5, 0.5]), 2.5)
        assert pi == pytest.approx([0.05, 0.05], abs=1e-15)

    def test_zero_sigma(self):
        pi = equilibrium_returns(np.zeros((3, 3)), np.full(3, 1 / 3), 2.5)
        assert pi == pytest.approx([0.0, 0.0, 0.0])

    def test_linearity_in_risk_aversion(self):
        rng = np.random.default_rng(4)
        a = rng.normal(0, 1, (3, 3))
        sigma = a @ a.T
        w = np.array([0.2, 0.3, 0.5])
        assert equilibrium_returns(sigma, w, 5.0) == pytest.approx(
            2.0 * equilibrium_returns(sigma, w, 2.5)
        )

    def test_dimension_mismatch(self):
        with pytest.raises(DataAlignmentError):
            equilibrium_returns(np.eye(2), np.array([1.0, 0.0, 0.0]), 2.5)


class TestBuildViews:
    def test_one_hot_rows_and_signs(self):
        sigma = np.eye(3) * 0.04
        config = BlConfig()
        views = build_views(
            [insight("A", "up", 0.03), insight("C", "down", 0.01), insight("B", "flat")],
            ["A", "B", "C"], sigma, config,
        )
        assert len(views) == 2
        assert views.pick[0] == pytest.approx([1, 0, 0])
        assert views.pick[1] == pytest.approx([0, 0, 1])
        assert views.view_returns == pytest.approx([0.03, -0.01])

    def test_omega_proportional_rule(self):
        sigma = np.diag([0.04, 0.09])
        config = BlConfig(tau=0.05)
        views = build_views([insight("B", "up", 0.02, confidence=0.5)], ["A", "B"], sigma, config)
        assert views.omega_diag[0] == pytest.approx(0.05 * 0.09 / 0.5)

    def test_unknown_symbols_skipped(self):
        views = build_views([insight("ZZZ", "up")], ["A", "B"], np.eye(2), BlConfig())
        assert len(views) == 0


class TestPosteriorReturns:
    def test_empty_views_identity(self):
        rng = np.random.default_rng(5)
        a = rng.normal(0, 1, (4, 4))
        sigma = a @ a.T + np.eye(4)
        pi = rng.normal(0, 0.05, 4)
        out = posterior_returns(pi, sigma, 0.05, ViewSet.empty(4))
        assert out.tobytes() == pi.tobytes()  # bit-for-bit

    def test_small_omega_limit_pins_view(self):
        # oracle: as Omega -> 0 the posterior honors the view exactly
        sigma = np.array([[0.04, 0.01], [0.01, 0.09]])
        pi = np.array([0.03, 0.05])
        views = ViewSet(np.array([[0.0, 1.0]]), np.array([0.11]), np.array([1e-10]))
        out = posterior_returns(pi, sigma, 0.05, views)
        assert out[1] == pytest.approx(0.11, abs=1e-6)

    def test_two_asset_case_matches_scalar_algebra(self):
        # oracle: the 2x2 blend written out with explicit scalar inverses
        sigma = np.array([[0.0400, 0.0120], [0.0120, 0.0625]])
        tau = 0.05
        pi = np.array([0.040, 0.055])
        q, omega = 0.080, 0.020
        views = ViewSet(np.array([[1.0, 0.0]]), np.array([q]), np.array([omega]))

        ts = tau * sigma
        det = ts[0, 0] * ts[1, 1] - ts[0, 1] * ts[1, 0]
        inv_ts = np.array([[ts[1, 1], -ts[0, 1]], [-ts[1, 0], ts[0, 0]]]) / det
        system = inv_ts + np.array([[1 / omega, 0.0], [0.0, 0.0]])
        rhs = inv_ts @ pi + np.array([q / omega, 0.0])
        det_sys = system[0, 0] * system[1, 1] - system[0, 1] * system[1, 0]
        inv_sys = (
            np.array([[system[1, 1], -system[0, 1]], [-system[1, 0], system[0, 0]]])
            / det_sys
        )
        expected = inv_sys @ rhs

        out = posterior_returns(pi, sigma, tau, views)
        assert out == pytest.approx(expected, abs=1e-10)

    def test_single_view_interpolates(self):
        sigma = np.diag([0.04, 0.09])
        pi = np.array([0.02, 0.03])
        q = 0.10
        previous = None
        for omega in (1e-8, 1e-4, 1e-2, 1.0, 100.0):
            views = ViewSet(np.array([[0.0, 1.0]]), np.array([q]), np.array([omega]))
            out = posterior_returns(pi, sigma, 0.05, views)
            assert pi[1] < out[1] < q
            if previous is not None:
                assert out[1] < previous  # larger omega pulls back toward prior
            previous = out[1]

    def test_invalid_omega(self):
        views = ViewSet(np.array([[1.0, 0.0]]), np.array([0.1]), np.array([0.0]))
        with pytest.raises(ParameterError):
            posterior_returns(np.zeros(2), np.eye(2), 0.05, views)


class TestOptimizeWeights:
    def test_equilibrium_round_trip(self):
        rng = np.random.default_rng(6)
        a = rng.normal(0, 0.1, (5, 5))
        sigma = a @ a.T + 0.01 * np.eye(5)
        w_mkt = rng.uniform(0.1, 0.3, 5)
        w_mkt /= w_mkt.sum()
        config = BlConfig(long_only=False)
        pi = equilibrium_returns(sigma, w_mkt, config.risk_aversion)
        result = optimize_weights(pi, sigma, config, list("ABCDE"))
        assert np.array(list(result.weights.values())) == pytest.approx(w_mkt, abs=1e-9)

    def test_zero_mu_all_cash(self):
        config = BlConfig()
        result = optimize_weights(np.zeros(3), np.eye(3) * 0.04, config, ["A", "B", "C"])
        assert all(w == 0.0 for w in result.weights.values())

    def test_negative_weight_clamped(self):
        # oracle: hand projection of the closed-form solution
        # unconstrained w = mu / (delta * var) = [0.2, -0.1]
        sigma = np.diag([0.04, 0.04])
        mu = np.array([0.02, -0.01])
        config = BlConfig(risk_aversion=2.5, max_weight=0.20)
        result = optimize_weights(mu, sigma, config, ["A", "B"])
        assert result.weights["A"] == pytest.approx(0.20)
        assert result.weights["B"] == 0.0

    def test_long_only_invariants_randomized(self):
        rng = np.random.default_rng(7)
        config = BlConfig()
        for _ in range(50):
            n = int(rng.integers(2, 8))
            a = rng.normal(0, 0.1, (n, n))
            sigma = a @ a.T + 0.01 * np.eye(n)
            mu = rng.normal(0, 0.1, n)
            result = optimize_weights(mu, sigma, config, [f"S{i}" for i in range(n)])
            weights = np.array(list(result.weights.values()))
            assert np.all(weights >= 0.0)
            assert np.all(weights <= config.max_weight + 1e-9)
            assert weights.sum() <= 1.0 + 1e-9

    def test_cap_scaling_keeps_proportions(self):
        sigma = np.eye(4) * 0.01
        mu = np.full(4, 0.02)  # unconstrained weight 0.8 each
        config = BlConfig(max_weight=0.5)
        result = optimize_weights(mu, sigma, config, list("ABCD"))
        weights = np.array(list(result.weights.values()))
        assert weights.sum() == pytest.approx(1.0)
        assert np.all(weights <= config.max_weight + 1e-9)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ParameterError):
            BlConfig(risk_aversion=0)
        with pytest.raises(ParameterError):
            BlConfig(tau=-1)
        with pytest.raises(ParameterError):
            BlConfig(max_weight=0.0)
