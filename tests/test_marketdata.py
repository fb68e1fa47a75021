import math
from datetime import date

import numpy as np
import pytest

from duotrader.errors import (
    DataOrderingError,
    DuotraderError,
    InsufficientDataError,
    InvalidInputError,
    ParameterError,
)
from duotrader.marketdata import (
    RollingWindow,
    ingest_csv,
    ingest_meta_csv,
    log_returns,
    synth_regime_series,
)

from conftest import make_bar


HEADER = "symbol,date,open,high,low,close,volume\n"


def write_bars(tmp_path, rows, name="bars.csv"):
    path = tmp_path / name
    path.write_text(HEADER + "".join(r + "\n" for r in rows))
    return path


class TestIngest:
    def test_direct_field_mapping(self, tmp_path):
        path = write_bars(tmp_path, ["XOM,2020-01-02,70.0,71.0,69.5,70.5,1000000"])
        result = ingest_csv(path)
        assert result.rejected_rows == 0
        (bar,) = result.bars_by_symbol["XOM"]
        assert bar.symbol == "XOM"
        assert bar.timestamp == date(2020, 1, 2)
        assert (bar.open, bar.high, bar.low, bar.close) == (70.0, 71.0, 69.5, 70.5)
        assert bar.volume == 1000000

    def test_empty_close_rejected(self, tmp_path):
        path = write_bars(tmp_path, [
            "XOM,2020-01-02,70.0,71.0,69.5,70.5,1000000",
            "XOM,2020-01-03,70.0,71.0,69.5,,1000000",
        ])
        result = ingest_csv(path)
        assert result.rejected_rows == 1
        assert len(result.bars_by_symbol["XOM"]) == 1

    @pytest.mark.parametrize("bad_close", ["0", "-5", "nan", "abc"])
    def test_invalid_close_rejected(self, tmp_path, bad_close):
        path = write_bars(tmp_path, [f"XOM,2020-01-02,70.0,71.0,69.5,{bad_close},100"])
        result = ingest_csv(path)
        assert result.rejected_rows == 1
        assert "XOM" not in result.bars_by_symbol

    def test_non_monotonic_dates_fatal(self, tmp_path):
        path = write_bars(tmp_path, [
            "XOM,2020-01-03,70.0,71.0,69.5,70.5,100",
            "XOM,2020-01-02,70.0,71.0,69.5,70.5,100",
        ])
        with pytest.raises(DataOrderingError):
            ingest_csv(path)

    def test_duplicate_date_fatal(self, tmp_path):
        path = write_bars(tmp_path, [
            "XOM,2020-01-02,70.0,71.0,69.5,70.5,100",
            "XOM,2020-01-02,70.0,71.0,69.5,70.6,100",
        ])
        with pytest.raises(DataOrderingError):
            ingest_csv(path)

    def test_missing_file_fatal(self, tmp_path):
        with pytest.raises(DuotraderError, match="no_such"):
            ingest_csv(tmp_path / "no_such.csv")

    def test_bad_header_fatal(self, tmp_path):
        path = tmp_path / "bars.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(DuotraderError, match="header"):
            ingest_csv(path)

    def test_inconsistent_ohlc_rejected(self, tmp_path):
        # high below close
        path = write_bars(tmp_path, ["XOM,2020-01-02,70.0,70.1,69.5,70.5,100"])
        result = ingest_csv(path)
        assert result.rejected_rows == 1

    def test_blank_optionals_inherit_close(self, tmp_path):
        path = write_bars(tmp_path, ["XOM,2020-01-02,,,,70.5,"])
        result = ingest_csv(path)
        (bar,) = result.bars_by_symbol["XOM"]
        assert bar.open == bar.high == bar.low == bar.close == 70.5
        assert bar.volume == 0

    def test_never_admits_nonpositive_close(self, tmp_path):
        rows = [f"S,2020-01-{2+i:02d},,,,{c},10" for i, c in enumerate([1.0, 0.0, -1.0, 2.0])]
        result = ingest_csv(write_bars(tmp_path, rows))
        assert all(b.close > 0 for b in result.bars_by_symbol["S"])
        assert result.rejected_rows == 2

    def test_meta_csv(self, tmp_path):
        path = tmp_path / "meta.csv"
        path.write_text("symbol,sector,shares_outstanding\nXOM,Energy,4200000000\n")
        meta = ingest_meta_csv(path)
        assert meta["XOM"].sector == "Energy"
        assert meta["XOM"].shares_outstanding == 4200000000

    def test_meta_invalid_shares(self, tmp_path):
        path = tmp_path / "meta.csv"
        path.write_text("symbol,sector,shares_outstanding\nXOM,Energy,0\n")
        with pytest.raises(DuotraderError):
            ingest_meta_csv(path)


class TestFeatures:
    def test_log_return_equal_prices(self):
        assert log_returns([100, 100]) == pytest.approx([0.0])

    def test_log_return_value(self):
        # oracle: direct evaluation of the natural logarithm
        assert log_returns([100, 110])[0] == pytest.approx(math.log(110 / 100), abs=1e-12)
        assert log_returns([100, 110])[0] == pytest.approx(0.0953102, abs=1e-6)

    def test_log_return_symmetry(self):
        out = log_returns([100, 110, 100])
        assert out[0] == pytest.approx(-out[1], abs=1e-15)

    def test_log_return_errors(self):
        with pytest.raises(InsufficientDataError):
            log_returns([100])
        with pytest.raises(InvalidInputError):
            log_returns([100, 0.0])
        with pytest.raises(InvalidInputError):
            log_returns([100, -3])

    def test_log_return_reconstruction(self):
        rng = np.random.default_rng(5)
        closes = 50 * np.exp(np.cumsum(rng.normal(0, 0.02, 300)))
        rebuilt = np.exp(np.cumsum(log_returns(closes)))
        assert np.allclose(rebuilt, closes[1:] / closes[0], rtol=1e-12)


class TestRollingWindow:
    def test_capacity_and_eviction(self):
        window = RollingWindow(3)
        bars = [make_bar(close=float(i)) for i in range(1, 8)]
        for i, bar in enumerate(bars):
            window.push(bar)
            assert len(window) <= 3
        assert list(window.closes()) == [5.0, 6.0, 7.0]
        assert len(window) == window.capacity

    def test_order_preserved_below_capacity(self):
        window = RollingWindow(10)
        for i in range(4):
            window.push(make_bar(close=float(i)))
        assert list(window.closes()) == [0.0, 1.0, 2.0, 3.0]
        assert len(window) < window.capacity

    def test_invalid_capacity(self):
        with pytest.raises(ParameterError):
            RollingWindow(0)


class TestSynthSeries:
    def test_single_regime_labels(self):
        bars, labels = synth_regime_series(1, 100, [(0.0, 0.01)], [[1.0]])
        assert len(bars) == 100
        assert np.all(labels == 0)

    def test_determinism(self):
        a = synth_regime_series(7, 50, [(0.001, 0.01), (-0.001, 0.02)], [[0.9, 0.1], [0.2, 0.8]])
        b = synth_regime_series(7, 50, [(0.001, 0.01), (-0.001, 0.02)], [[0.9, 0.1], [0.2, 0.8]])
        assert a[0] == b[0]
        assert np.array_equal(a[1], b[1])

    def test_per_regime_sample_means(self):
        # oracle: sample statistics over the generated data vs the known
        # generating drifts, within three standard errors
        means = (0.002, -0.002)
        stdev = 0.005
        bars, labels = synth_regime_series(
            3, 2000, [(means[0], stdev), (means[1], stdev)],
            [[0.95, 0.05], [0.05, 0.95]],
        )
        rets = log_returns([b.close for b in bars])
        for regime in (0, 1):
            mask = labels[1:] == regime
            n = mask.sum()
            assert n > 100
            sample_mean = rets[mask].mean()
            assert abs(sample_mean - means[regime]) < 3 * stdev / math.sqrt(n)

    def test_invalid_transition(self):
        with pytest.raises(ParameterError):
            synth_regime_series(1, 10, [(0.0, 0.01)], [[0.5]])
        with pytest.raises(ParameterError):
            synth_regime_series(1, 10, [(0.0, 0.01), (0.0, 0.01)], [[0.9, 0.1]])

    def test_invalid_stdev(self):
        with pytest.raises(ParameterError):
            synth_regime_series(1, 10, [(0.0, 0.0)], [[1.0]])

    def test_bars_are_sane(self):
        bars, _ = synth_regime_series(9, 60, [(0.0005, 0.015)], [[1.0]])
        for prev, cur in zip(bars, bars[1:]):
            assert cur.timestamp > prev.timestamp
            assert cur.timestamp.weekday() < 5
            assert cur.open == prev.close
        for bar in bars:
            assert bar.low <= min(bar.open, bar.close)
            assert max(bar.open, bar.close) <= bar.high
            assert bar.volume >= 0
