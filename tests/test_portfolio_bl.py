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
    RISK_AVERSION,
    BlConfig,
    build_views,
    equilibrium_returns,
    estimate_covariance,
    optimize_weights,
    posterior_returns,
)

DAY = date(2021, 5, 3)


def insight(symbol, direction, magnitude=0.02):
    return Insight(symbol, direction, magnitude, DAY, 21)


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
        q, precision = build_views(
            [insight("A", "up", 0.03), insight("C", "down", 0.01), insight("B", "flat")],
            ["A", "B", "C"], sigma,
        )
        assert q == pytest.approx([0.03, 0.0, -0.01])
        assert precision == pytest.approx([0.5 / 0.04, 0.0, 0.5 / 0.04])

    def test_omega_proportional_rule(self):
        # precision = tau / Omega_ii = VIEW_CONFIDENCE / Sigma_ii, with VIEW_CONFIDENCE 0.5
        sigma = np.diag([0.04, 0.09])
        _, precision = build_views([insight("B", "up", 0.02)], ["A", "B"], sigma)
        assert precision[1] == pytest.approx(0.5 / 0.09)

    def test_unknown_symbols_skipped(self):
        q, precision = build_views([insight("ZZZ", "up")], ["A", "B"], np.eye(2))
        assert not q.any() and not precision.any()


class TestPosteriorReturns:
    def test_empty_views_identity(self):
        rng = np.random.default_rng(5)
        a = rng.normal(0, 1, (4, 4))
        sigma = a @ a.T + np.eye(4)
        pi = rng.normal(0, 0.05, 4)
        out = posterior_returns(pi, sigma, np.zeros(4), np.zeros(4))
        assert out.tobytes() == pi.tobytes()  # bit-for-bit

    def test_small_omega_limit_pins_view(self):
        # oracle: as Omega -> 0 the posterior honors the view exactly
        sigma = np.array([[0.04, 0.01], [0.01, 0.09]])
        pi = np.array([0.03, 0.05])
        out = posterior_returns(pi, sigma, np.array([0.0, 0.11]), np.array([0.0, 0.05 / 1e-10]))
        assert out[1] == pytest.approx(0.11, abs=1e-6)

    def test_two_asset_case_matches_scalar_algebra(self):
        # oracle: the 2x2 blend written out with explicit scalar inverses
        sigma = np.array([[0.0400, 0.0120], [0.0120, 0.0625]])
        tau = 0.05
        pi = np.array([0.040, 0.055])
        q, omega = 0.080, 0.020

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

        out = posterior_returns(pi, sigma, np.array([q, 0.0]), np.array([tau / omega, 0.0]))
        assert out == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("seed", range(8))
    def test_same_bits_as_the_pick_matrix_form(self, seed):
        # oracle: the general form with a (V, N) pick matrix of one-hot rows,
        # [Sigma^-1 + P^T diag(p) P] mu = Sigma^-1 pi + P^T (p q), solved as
        # the module solves. Products with one-hot rows are exact, so the
        # bits agree on any BLAS kernel.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        a = rng.normal(0, 0.1, (n, n))
        sigma = a @ a.T + 0.01 * np.eye(n)
        pi = rng.normal(0, 0.1, n)
        viewed = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
        q, precision = np.zeros(n), np.zeros(n)
        q[viewed] = rng.normal(0, 0.01, viewed.size)
        precision[viewed] = rng.uniform(0.5, 50.0, viewed.size)

        pick = np.eye(n)[viewed]
        p, qv = precision[viewed], q[viewed]
        inv_sigma = np.linalg.solve(sigma, np.eye(n))
        dense = np.linalg.solve(
            inv_sigma + pick.T @ np.diag(p) @ pick, inv_sigma @ pi + pick.T @ (p * qv)
        )
        assert np.array_equal(posterior_returns(pi, sigma, q, precision), dense)

    def test_single_view_interpolates(self):
        sigma = np.diag([0.04, 0.09])
        pi = np.array([0.02, 0.03])
        q = np.array([0.0, 0.10])
        previous = None
        for omega in (1e-8, 1e-4, 1e-2, 1.0, 100.0):
            out = posterior_returns(pi, sigma, q, np.array([0.0, 0.05 / omega]))
            assert pi[1] < out[1] < q[1]
            if previous is not None:
                assert out[1] < previous  # larger omega pulls back toward prior
            previous = out[1]

    def test_invalid_omega(self):
        # a precision of inf is a view with Omega = 0
        for bad in (-1.0, np.inf, np.nan):
            with pytest.raises(ParameterError):
                posterior_returns(np.zeros(2), np.eye(2), np.array([0.1, 0.0]), np.array([bad, 0.0]))


class TestOptimizeWeights:
    def test_equilibrium_round_trip(self):
        rng = np.random.default_rng(6)
        a = rng.normal(0, 0.1, (5, 5))
        sigma = a @ a.T + 0.01 * np.eye(5)
        w_mkt = rng.uniform(0.1, 0.3, 5)
        w_mkt /= w_mkt.sum()
        # Market weights are positive, at most the cap and sum to 1, so the
        # projection leaves them (to rounding).
        config = BlConfig(max_weight=1.0)
        pi = equilibrium_returns(sigma, w_mkt, RISK_AVERSION)
        result = optimize_weights(pi, sigma, config, list("ABCDE"))
        assert np.array(list(result.values())) == pytest.approx(w_mkt, abs=1e-9)

    def test_zero_mu_all_cash(self):
        config = BlConfig()
        result = optimize_weights(np.zeros(3), np.eye(3) * 0.04, config, ["A", "B", "C"])
        assert all(w == 0.0 for w in result.values())

    def test_negative_weight_clamped(self):
        # oracle: hand projection of the closed-form solution
        # unconstrained w = mu / (delta * var) = [0.2, -0.1]
        sigma = np.diag([0.04, 0.04])
        mu = np.array([0.02, -0.01])
        config = BlConfig(max_weight=0.20)
        assert RISK_AVERSION == 2.5
        result = optimize_weights(mu, sigma, config, ["A", "B"])
        assert result["A"] == pytest.approx(0.20)
        assert result["B"] == 0.0

    def test_long_only_invariants_randomized(self):
        rng = np.random.default_rng(7)
        config = BlConfig()
        for _ in range(50):
            n = int(rng.integers(2, 8))
            a = rng.normal(0, 0.1, (n, n))
            sigma = a @ a.T + 0.01 * np.eye(n)
            mu = rng.normal(0, 0.1, n)
            result = optimize_weights(mu, sigma, config, [f"S{i}" for i in range(n)])
            weights = np.array(list(result.values()))
            assert np.all(weights >= 0.0)
            assert np.all(weights <= config.max_weight + 1e-9)
            assert weights.sum() <= 1.0 + 1e-9

    def test_cap_scaling_keeps_proportions(self):
        sigma = np.eye(4) * 0.01
        mu = np.full(4, 0.02)  # unconstrained weight 0.8 each
        config = BlConfig(max_weight=0.5)
        result = optimize_weights(mu, sigma, config, list("ABCD"))
        weights = np.array(list(result.values()))
        assert weights.sum() == pytest.approx(1.0)
        assert np.all(weights <= config.max_weight + 1e-9)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ParameterError):
            BlConfig(max_weight=0.0)

    @pytest.mark.parametrize("lookback", [0, 2])
    def test_covariance_lookback_below_three(self, lookback):
        # One asset needs three returns; a shorter lookback skips every rebalance.
        with pytest.raises(ParameterError, match="covariance_lookback"):
            BlConfig(covariance_lookback=lookback)
        assert BlConfig(covariance_lookback=3).covariance_lookback == 3
