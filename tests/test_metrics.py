import math
from datetime import date, timedelta

import numpy as np
import pytest

from duotrader.engine import Fill
from duotrader.errors import DataAlignmentError, InsufficientDataError
from duotrader.metrics import (
    cagr,
    compute_report,
    max_drawdown,
    normal_cdf,
    profit_loss_ratio,
    round_trips,
    total_return,
)


def days(n, start=date(2020, 1, 1)):
    return [start + timedelta(days=i) for i in range(n)]


def fill(symbol, side, qty, price, day=date(2020, 1, 2), reason="rebalance"):
    return Fill(symbol, side, qty, price, max(0.005 * qty, 1.0), day, reason)


class TestFormulaHelpers:
    def test_total_return(self):
        assert total_return(100_000, 182_761.12) == pytest.approx(0.8276112)

    def test_cagr_three_years(self):
        growth = cagr(100_000, 182_761.12, 1096)
        assert growth == pytest.approx((1.8276112) ** (365.25 / 1096) - 1, abs=1e-15)
        assert growth == pytest.approx(0.222, abs=1e-3)

    def test_profit_loss_ratio(self):
        assert profit_loss_ratio(0.0770, -0.0329) == pytest.approx(2.34, abs=5e-3)
        assert profit_loss_ratio(0.05, 0.0) == 0.0

    def test_max_drawdown_cases(self):
        assert max_drawdown([100, 120, 90, 130]) == pytest.approx(0.25)
        assert max_drawdown([100, 101, 102]) == 0.0
        assert max_drawdown([100.0]) == 0.0

    def test_normal_cdf(self):
        assert normal_cdf(0.0) == pytest.approx(0.5)
        assert normal_cdf(1.959963984540054) == pytest.approx(0.975, abs=1e-9)


class TestRoundTrips:
    def test_single_winner(self):
        fills = [fill("A", "buy", 10, 100.0), fill("A", "sell", 10, 110.0)]
        (trip,) = round_trips(fills)
        assert trip.pnl == pytest.approx(100.0)
        assert trip.cost_basis == pytest.approx(1000.0)
        assert trip.return_pct == pytest.approx(0.10)

    def test_fifo_partial_close(self):
        fills = [
            fill("A", "buy", 10, 100.0),
            fill("A", "buy", 10, 120.0),
            fill("A", "sell", 15, 130.0),   # 10 @ +30, 5 @ +10
            fill("A", "sell", 5, 90.0),     # 5 @ -30
        ]
        (trip,) = round_trips(fills)
        assert trip.pnl == pytest.approx(10 * 30 + 5 * 10 + 5 * (-30))
        assert trip.cost_basis == pytest.approx(10 * 100 + 10 * 120)

    def test_open_position_excluded(self):
        fills = [fill("A", "buy", 10, 100.0), fill("A", "sell", 4, 110.0)]
        assert round_trips(fills) == []

    def test_multiple_symbols_independent(self):
        fills = [
            fill("A", "buy", 10, 100.0),
            fill("B", "buy", 5, 50.0),
            fill("A", "sell", 10, 110.0),
            fill("B", "sell", 5, 45.0),
        ]
        trips = round_trips(fills)
        assert len(trips) == 2
        by_symbol = {t.symbol: t for t in trips}
        assert by_symbol["A"].pnl > 0 > by_symbol["B"].pnl

    def test_reentry_counts_twice(self):
        fills = [
            fill("A", "buy", 10, 100.0),
            fill("A", "sell", 10, 110.0),
            fill("A", "buy", 10, 105.0),
            fill("A", "sell", 10, 100.0),
        ]
        assert len(round_trips(fills)) == 2


class TestComputeReport:
    def test_constant_equity(self):
        report = compute_report(days(5), [100_000.0] * 5, [])
        assert report.total_return == 0.0
        assert report.max_drawdown == 0.0
        assert report.sharpe == 0.0
        assert "sharpe-undefined" in report.flags
        assert "no-closed-trades" in report.flags

    def test_win_loss_rates_from_counts(self):
        fills = []
        day = date(2020, 1, 2)
        for i in range(40):
            price_out = 110.0 if i < 24 else 95.0
            fills.append(fill(f"S{i}", "buy", 10, 100.0, day))
            fills.append(fill(f"S{i}", "sell", 10, price_out, day + timedelta(days=1)))
        report = compute_report(days(10), np.linspace(1e5, 1.1e5, 10), fills)
        assert report.win_rate == pytest.approx(0.60)
        assert report.loss_rate == pytest.approx(0.40)
        assert report.total_orders == 80
        assert "fee-exceeds-notional" not in report.flags

    def test_fee_above_notional_flagged(self):
        # one share at $0.50 still pays the $1 minimum fee
        report = compute_report(days(5), np.full(5, 1e5), [fill("P", "buy", 1, 0.50)])
        assert report.flags.count("fee-exceeds-notional") == 1
        # a fee equal to the notional is not flagged
        report = compute_report(days(5), np.full(5, 1e5), [fill("P", "buy", 1, 1.00)])
        assert "fee-exceeds-notional" not in report.flags

    def test_ten_bar_spreadsheet_oracle(self):
        # oracle: every formula recomputed independently, spreadsheet style
        equity = np.array(
            [100_000.0, 101_500.0, 100_750.0, 102_900.0, 101_800.0,
             104_000.0, 103_100.0, 105_650.0, 104_900.0, 107_300.0]
        )
        dates = days(10)
        bench = np.array(
            [0.010, -0.004, 0.018, -0.008, 0.016, -0.006, 0.020, -0.005, 0.019]
        )
        fills = [
            fill("A", "buy", 100, 100.0, dates[1]),
            fill("A", "sell", 100, 110.0, dates[5]),
            fill("B", "buy", 50, 50.0, dates[2]),
            fill("B", "sell", 50, 45.0, dates[7]),
        ]
        rf = 0.02
        report = compute_report(dates, equity, fills, bench, rf)

        r = equity[1:] / equity[:-1] - 1.0
        n = r.size
        rf_daily = rf / 252
        excess = r - rf_daily

        assert report.total_return == pytest.approx(equity[-1] / equity[0] - 1, abs=1e-9)
        assert report.cagr == pytest.approx(
            (equity[-1] / equity[0]) ** (365.25 / 9) - 1, abs=1e-9
        )
        assert report.sharpe == pytest.approx(
            excess.mean() / excess.std(ddof=1) * math.sqrt(252), abs=1e-9
        )
        downside = math.sqrt(np.mean(np.minimum(r, 0.0) ** 2))
        assert report.sortino == pytest.approx(
            excess.mean() / downside * math.sqrt(252), abs=1e-9
        )
        peaks = np.maximum.accumulate(equity)
        assert report.max_drawdown == pytest.approx(
            np.max((peaks - equity) / peaks), abs=1e-12
        )
        assert report.annual_stdev == pytest.approx(
            r.std(ddof=1) * math.sqrt(252), abs=1e-9
        )
        assert report.annual_variance == pytest.approx(report.annual_stdev**2, abs=1e-12)

        cov = np.cov(r, bench, ddof=1)
        beta = cov[0, 1] / cov[1, 1]
        assert report.beta == pytest.approx(beta, abs=1e-9)
        assert report.alpha == pytest.approx(
            r.mean() * 252 - (rf + beta * (bench.mean() * 252 - rf)), abs=1e-9
        )
        te = (r - bench).std(ddof=1) * math.sqrt(252)
        assert report.tracking_error == pytest.approx(te, abs=1e-9)
        assert report.information_ratio == pytest.approx(
            (r - bench).mean() * 252 / te, abs=1e-9
        )
        assert report.treynor == pytest.approx((r.mean() * 252 - rf) / beta, abs=1e-9)

        sr = excess.mean() / excess.std(ddof=1)
        centered = r - r.mean()
        m2 = np.mean(centered**2)
        skew = np.mean(centered**3) / m2**1.5
        kurt = np.mean(centered**4) / m2**2
        psr = normal_cdf(
            sr * math.sqrt(n - 1) / math.sqrt(1 - skew * sr + (kurt - 1) / 4 * sr**2)
        )
        assert report.probabilistic_sharpe == pytest.approx(psr, abs=1e-9)

        assert report.win_rate == pytest.approx(0.5)
        assert report.loss_rate == pytest.approx(0.5)
        assert report.average_win == pytest.approx(0.10, abs=1e-12)
        assert report.average_loss == pytest.approx(-0.10, abs=1e-12)
        assert report.profit_loss_ratio == pytest.approx(1.0, abs=1e-12)
        assert report.total_orders == 4
        assert report.total_fees == pytest.approx(1.0 + 1.0 + 1.0 + 1.0)
        traded = 100 * 100.0 + 100 * 110.0 + 50 * 50.0 + 50 * 45.0
        assert report.turnover == pytest.approx(
            traded / 10 / equity.mean(), abs=1e-12
        )
        assert report.start_equity == 100_000.0
        assert report.end_equity == 107_300.0
        assert report.runtime_days == 9

    def test_beta_matches_an_elementwise_reference(self):
        # Each centred product summed exactly by math.fsum, then divided by
        # n - 1 and by the benchmark's variance: no BLAS product on either side.
        rng = np.random.default_rng(31)
        equity = 1e5 * np.exp(np.cumsum(rng.normal(0.0004, 0.01, 401)))
        r = equity[1:] / equity[:-1] - 1.0
        bench = 0.6 * r + rng.normal(0.0, 0.008, r.size)
        report = compute_report(days(equity.size), equity, [], bench)
        n = r.size
        r_mean, b_mean = math.fsum(r) / n, math.fsum(bench) / n
        covariance = math.fsum((x - r_mean) * (y - b_mean) for x, y in zip(r, bench)) / (n - 1)
        variance = math.fsum((y - b_mean) ** 2 for y in bench) / (n - 1)
        assert report.beta == pytest.approx(covariance / variance, rel=1e-12)

    def test_benchmark_self_beta_one(self):
        rng = np.random.default_rng(20)
        equity = 1e5 * np.exp(np.cumsum(rng.normal(0.0005, 0.01, 120)))
        dates = days(equity.size)
        r = equity[1:] / equity[:-1] - 1.0
        report = compute_report(dates, equity, [], r)
        assert report.beta == pytest.approx(1.0, abs=1e-12)
        assert report.alpha == pytest.approx(0.0, abs=1e-9)
        assert "information-ratio-undefined" in report.flags  # zero active risk

    def test_benchmark_ending_early_flagged(self):
        dates = days(6)
        equity = [100.0, 101.0, 99.0, 102.0, 103.0, 104.0]
        bench = [0.01, -0.02, 0.0, 0.0, 0.0]
        for end, flagged in ((dates[2], True), (dates[-1], False), (None, False)):
            report = compute_report(dates, equity, [], bench, benchmark_end=end)
            assert ("benchmark-ends-early" in report.flags) is flagged

    def test_benchmark_starting_late_flagged(self):
        dates = days(6)
        equity = [100.0, 101.0, 99.0, 102.0, 103.0, 104.0]
        bench = [0.0, 0.0, 0.01, -0.02, 0.01]
        for start, flagged in ((dates[2], True), (dates[0], False), (None, False)):
            report = compute_report(dates, equity, [], bench, benchmark_start=start)
            assert ("benchmark-starts-late" in report.flags) is flagged
            assert "benchmark-ends-early" not in report.flags

    def test_sharpe_scale_invariance(self):
        rng = np.random.default_rng(21)
        equity = 1e5 * np.exp(np.cumsum(rng.normal(0.0005, 0.01, 90)))
        dates = days(equity.size)
        base = compute_report(dates, equity, [])
        scaled = compute_report(dates, equity * 7.5, [])
        assert scaled.sharpe == pytest.approx(base.sharpe, abs=1e-12)
        assert scaled.max_drawdown == pytest.approx(base.max_drawdown, abs=1e-12)

    def test_mdd_zero_iff_nondecreasing(self):
        rng = np.random.default_rng(22)
        for _ in range(30):
            equity = 1e5 + np.cumsum(rng.normal(50, 400, 40))
            report = compute_report(days(40), equity, [])
            non_decreasing = bool(np.all(np.diff(equity) >= 0))
            assert 0.0 <= report.max_drawdown <= 1.0
            assert (report.max_drawdown == 0.0) == non_decreasing

    def test_rate_identity_randomized(self):
        rng = np.random.default_rng(23)
        for trial in range(20):
            fills = []
            day = date(2020, 1, 2)
            for i in range(int(rng.integers(1, 12))):
                buy_px = float(rng.uniform(20, 200))
                sell_px = float(rng.uniform(20, 200))
                qty = int(rng.integers(1, 50))
                fills.append(fill(f"S{i}", "buy", qty, buy_px, day))
                fills.append(fill(f"S{i}", "sell", qty, sell_px, day + timedelta(days=1)))
            equity = np.linspace(1e5, 1.05e5, 20)
            report = compute_report(days(20), equity, fills)
            assert report.win_rate + report.loss_rate == pytest.approx(1.0)
            if report.average_loss != 0:
                assert report.profit_loss_ratio == pytest.approx(
                    report.average_win / abs(report.average_loss)
                )

    def test_cagr_sign_matches_total_return(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            equity = 1e5 * np.exp(np.cumsum(rng.normal(0, 0.02, 30)))
            report = compute_report(days(30), equity, [])
            assert np.sign(report.cagr) == np.sign(report.total_return)

    def test_errors(self):
        with pytest.raises(InsufficientDataError):
            compute_report(days(1), [1e5], [])
        with pytest.raises(DataAlignmentError):
            compute_report(days(5), np.full(5, 1e5), [], np.zeros(7))

    def test_report_dict_fields(self):
        report = compute_report(days(5), np.linspace(1e5, 1.1e5, 5), [])
        payload = report.to_dict()
        assert set(payload) == {
            "total_return", "cagr", "sharpe", "sortino", "probabilistic_sharpe",
            "max_drawdown", "annual_stdev", "annual_variance", "alpha", "beta",
            "information_ratio", "tracking_error", "treynor", "win_rate",
            "loss_rate", "average_win", "average_loss", "profit_loss_ratio",
            "total_orders", "turnover", "total_fees", "start_equity",
            "end_equity", "runtime_days", "flags",
        }
