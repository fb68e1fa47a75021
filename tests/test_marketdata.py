import math
from datetime import date

import numpy as np
import pytest

from duotrader.engine import run_backtest
from duotrader.errors import (
    DataAlignmentError,
    DataOrderingError,
    DuotraderError,
    InsufficientDataError,
    InvalidInputError,
    ParameterError,
)
from duotrader import marketdata
from duotrader.marketdata import (
    SymbolBars,
    ingest_csv,
    ingest_meta_csv,
    log_returns,
    synth_regime_series,
)
from duotrader.runconfig import RunConfig

from conftest import take_rows


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
        series = result.bars_by_symbol["XOM"]
        assert len(series) == 1
        assert series.days[0] == date(2020, 1, 2).toordinal()
        fields = (series.open, series.high, series.low, series.close, series.volume)
        assert [f[0] for f in fields] == [70.0, 71.0, 69.5, 70.5, 1000000.0]
        assert not series.close.flags.writeable

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

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("column", ["open", "high", "low"])
    def test_non_finite_price_rejected(self, tmp_path, column, value):
        fields = {"open": "70.0", "high": "71.0", "low": "69.5"}
        fields[column] = value
        row = f"XOM,2020-01-02,{fields['open']},{fields['high']},{fields['low']},70.5,100"
        result = ingest_csv(write_bars(tmp_path, [row]))
        assert result.rejected_rows == 1
        assert "XOM" not in result.bars_by_symbol
        assert result.diagnostics == [f"{tmp_path / 'bars.csv'}:2: invalid {column}"]

    @pytest.mark.parametrize("volume", ["inf", "-inf", "1e400"])
    def test_infinite_volume_rejected(self, tmp_path, volume):
        path = write_bars(tmp_path, [
            "XOM,2020-01-02,70.0,71.0,69.5,70.5,100",
            f"XOM,2020-01-03,70.0,71.0,69.5,70.5,{volume}",
        ])
        result = ingest_csv(path)
        assert result.rejected_rows == 1
        assert len(result.bars_by_symbol["XOM"]) == 1
        assert result.diagnostics == [
            f"{path}:3: cannot convert float infinity to integer"
        ]

    def test_volume_truncated_to_whole_shares(self, tmp_path):
        path = write_bars(tmp_path, [
            "XOM,2020-01-02,70.0,71.0,69.5,70.5,12.9",
            "XOM,2020-01-03,70.0,71.0,69.5,70.5,-0.5",
        ])
        volume = ingest_csv(path).bars_by_symbol["XOM"].volume
        assert volume.tolist() == [12.0, 0.0]
        assert not np.signbit(volume[1])

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
        series = result.bars_by_symbol["XOM"]
        assert len(series) == 1
        assert series.open[0] == series.high[0] == series.low[0] == series.close[0] == 70.5
        assert series.volume[0] == 0

    def test_never_admits_nonpositive_close(self, tmp_path):
        rows = [f"S,2020-01-{2+i:02d},,,,{c},10" for i, c in enumerate([1.0, 0.0, -1.0, 2.0])]
        result = ingest_csv(write_bars(tmp_path, rows))
        assert np.all(result.bars_by_symbol["S"].close > 0)
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

    @pytest.mark.parametrize("shares", ["abc", "inf", ""])
    def test_meta_unparsable_shares(self, tmp_path, shares):
        path = tmp_path / "meta.csv"
        path.write_text(
            f"symbol,sector,shares_outstanding\nCVX,Energy,100\nXOM,Energy,{shares}\n"
        )
        with pytest.raises(DuotraderError, match=r"meta\.csv:3: invalid shares_outstanding"):
            ingest_meta_csv(path)

    def test_meta_duplicate_symbol_refused(self, tmp_path):
        # The second row would otherwise silently replace the first one's
        # sector and shares, which decide the candidate's universe stage.
        path = tmp_path / "meta.csv"
        path.write_text(
            "symbol,sector,shares_outstanding\nS00,Energy,100\nS01,Energy,7\nS00,Technology,5\n"
        )
        duplicate = r"meta\.csv:4: duplicate symbol S00 \(first on line 2\)"
        with pytest.raises(DuotraderError, match=duplicate):
            ingest_meta_csv(path)


def _columns(series: SymbolBars) -> list[np.ndarray]:
    return [series.days, series.open, series.high, series.low, series.close, series.volume]


def assert_same_ingest(a, b):
    assert list(a.bars_by_symbol) == list(b.bars_by_symbol)
    for symbol, series in a.bars_by_symbol.items():
        for x, y in zip(_columns(series), _columns(b.bars_by_symbol[symbol])):
            assert x.dtype == y.dtype and np.array_equal(x, y)
    assert a.rejected_rows == b.rejected_rows
    assert a.diagnostics == b.diagnostics


GOOD_ROWS = [
    "CVX,2020-01-02,110.0,111.5,109.0,111.0,2000",
    "CVX,2020-01-03,111.0,112.0,110.5,111.25,2500.7",
]
LONG_SYMBOL = "ABCDEFGHIJKLMNOPQRSTUV"  # 22 characters


def _iso_date_accepted(text: str) -> bool:
    try:
        date.fromisoformat(text)
    except ValueError:
        return False
    return True


def _outcome(read, path):
    """What a reader gives for a file: its result, or the ordering error."""
    try:
        return read(path)
    except DataOrderingError as exc:
        return exc


def assert_same_outcome(a, b):
    if isinstance(a, DataOrderingError) or isinstance(b, DataOrderingError):
        assert type(a) is type(b) and str(a) == str(b)
    else:
        assert_same_ingest(a, b)


XOM_ROW = "XOM,2020-01-02,70.0,71.0,69.5,70.5,100"


class TestFastPathParity:
    """``ingest_csv`` reads a file with numpy's C parser and falls back to
    the row-by-row reader unless the file is provably clean; either way the
    outcome equals the row-by-row reader's."""

    @pytest.mark.parametrize(
        "rows, newline, expect_fast",
        [
            pytest.param([XOM_ROW.replace("XOM", LONG_SYMBOL)], "\n", True, id="long-symbol"),
            pytest.param([XOM_ROW.replace("XOM", '"XOM"')], "\n", False, id="quoted-symbol"),
            pytest.param([XOM_ROW.replace("XOM", " XOM ")], "\n", False, id="padded-symbol"),
            pytest.param(["XOM,2020-01-02,,,,70.5,"], "\n", False, id="blank-optionals"),
            pytest.param([XOM_ROW.replace("2020-01-02", "")], "\n", False, id="blank-date"),
            pytest.param([XOM_ROW.replace("2020-01-02", "NaT")], "\n", False, id="nat-date"),
            pytest.param(
                [XOM_ROW.replace("2020-01-02", "20150102")], "\n",
                _iso_date_accepted("20150102"), id="basic-format-date",
            ),
            pytest.param([XOM_ROW.replace("2020-01-02", "2015-01")], "\n", False,
                         id="year-month-date"),
            pytest.param([XOM_ROW], "\r\n", True, id="crlf"),
            pytest.param(
                [XOM_ROW.replace("-02,", "-06,"), XOM_ROW], "\n", False,
                id="out-of-order",
            ),
            pytest.param([XOM_ROW.replace(",100", ",1e400")], "\n", False,
                         id="infinite-volume"),
            pytest.param([XOM_ROW + ",7"], "\n", False, id="extra-field"),
            pytest.param([XOM_ROW, ""], "\n", True, id="blank-line"),
        ],
    )
    def test_hazard(self, tmp_path, rows, newline, expect_fast):
        path = tmp_path / "bars.csv"
        text = HEADER + "".join(r + "\n" for r in GOOD_ROWS + rows)
        path.write_bytes(text.replace("\n", newline).encode())
        fast = marketdata._read_clean_columns(path)
        assert (fast is not None) == expect_fast
        outcome = _outcome(ingest_csv, path)
        assert_same_outcome(outcome, _outcome(marketdata._read_rows, path))
        if fast is not None:
            assert_same_ingest(outcome, marketdata.IngestResult(fast))

    @pytest.mark.parametrize("value", ["0", "-5"])
    @pytest.mark.parametrize("column", ["open", "low"])
    def test_non_positive_price_rejected(self, tmp_path, column, value):
        # The low goes with a non-positive open, so the OHLC order still
        # holds; the open is checked first.
        open_ = value if column == "open" else "70.0"
        path = write_bars(tmp_path, [*GOOD_ROWS, f"XOM,2020-01-02,{open_},71.0,{value},70.5,100"])
        assert marketdata._read_clean_columns(path) is None
        result = ingest_csv(path)
        assert_same_ingest(result, marketdata._read_rows(path))
        assert result.rejected_rows == 1
        assert result.diagnostics == [f"{path}:4: invalid {column}"]

    def test_out_of_order_error_names_line(self, tmp_path):
        path = write_bars(tmp_path, [*GOOD_ROWS, XOM_ROW.replace("-02,", "-06,"), XOM_ROW])
        with pytest.raises(DataOrderingError) as error:
            ingest_csv(path)
        assert str(error.value) == f"{path}:5: XOM timestamp 2020-01-02 not after 2020-01-06"

    def test_generated_market_takes_fast_path(self, tmp_path):
        rows = []
        generated = {}
        for i, symbol in enumerate(["S02", "S00", "S01"]):
            bars, _ = synth_regime_series(i, 40, [(0.0, 0.01)], [[1.0]])
            generated[symbol] = bars
            rows += [
                f"{symbol},{date.fromordinal(day)},{o!r},{h!r},{lo!r},{c!r},{int(v)}"
                for day, o, h, lo, c, v in zip(*(column.tolist() for column in _columns(bars)))
            ]
        path = write_bars(tmp_path, rows)
        fast = marketdata._read_clean_columns(path)
        assert fast is not None and list(fast) == ["S02", "S00", "S01"]
        for symbol, bars in generated.items():
            assert all(np.array_equal(x, y) for x, y in zip(_columns(fast[symbol]), _columns(bars)))
        # Each symbol's columns are slices of one array per field, not copies.
        assert fast["S02"].close.base is fast["S01"].close.base is not None
        assert_same_ingest(ingest_csv(path), marketdata._read_rows(path))

    def test_unordered_days_rejected(self):
        # run_backtest takes only SymbolBars, whose construction refuses
        # days that do not strictly increase.
        bars, _ = synth_regime_series(4, 3, [(0.0, 0.01)], [[1.0]])
        with pytest.raises(DataOrderingError):
            run_backtest({"S": take_rows(bars, [0, 2, 1])}, {}, RunConfig())
        with pytest.raises(DataOrderingError):
            take_rows(bars, [0, 1, 1])

    def test_columns_of_unequal_length_rejected(self):
        bars, _ = synth_regime_series(4, 3, [(0.0, 0.01)], [[1.0]])
        columns = _columns(bars)
        columns[4] = columns[4][:2]
        with pytest.raises(DataAlignmentError):
            SymbolBars(*columns)


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


class TestSynthSeries:
    def test_single_regime_labels(self):
        bars, labels = synth_regime_series(1, 100, [(0.0, 0.01)], [[1.0]])
        assert len(bars) == 100
        assert np.all(labels == 0)

    def test_determinism(self):
        a = synth_regime_series(7, 50, [(0.001, 0.01), (-0.001, 0.02)], [[0.9, 0.1], [0.2, 0.8]])
        b = synth_regime_series(7, 50, [(0.001, 0.01), (-0.001, 0.02)], [[0.9, 0.1], [0.2, 0.8]])
        assert all(np.array_equal(x, y) for x, y in zip(_columns(a[0]), _columns(b[0])))
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
        rets = log_returns(bars.close)
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

    @pytest.mark.parametrize("start_price", [0.0, -5.0, float("nan")])
    def test_non_positive_start_price(self, start_price):
        with pytest.raises(ParameterError, match="start_price"):
            synth_regime_series(1, 10, [(0.0, 0.01)], [[1.0]], start_price=start_price)

    def test_bars_are_sane(self):
        bars, _ = synth_regime_series(9, 60, [(0.0005, 0.015)], [[1.0]])
        assert np.all(np.diff(bars.days) > 0)
        assert all(date.fromordinal(day).weekday() < 5 for day in bars.days[1:].tolist())
        assert np.array_equal(bars.open[1:], bars.close[:-1])
        assert np.all(bars.low <= np.minimum(bars.open, bars.close))
        assert np.all(np.maximum(bars.open, bars.close) <= bars.high)
        assert np.all(bars.volume >= 0) and np.array_equal(bars.volume, np.trunc(bars.volume))

    @pytest.mark.parametrize("start, second", [
        (date(2016, 1, 1), date(2016, 1, 4)),   # Friday
        (date(2016, 1, 2), date(2016, 1, 4)),   # Saturday
        (date(2016, 1, 3), date(2016, 1, 4)),   # Sunday
        (date(2016, 1, 4), date(2016, 1, 5)),   # Monday
    ])
    def test_first_bar_on_start_date(self, start, second):
        bars, _ = synth_regime_series(9, 8, [(0.0005, 0.015)], [[1.0]], start_date=start)
        assert bars.days[:2].tolist() == [start.toordinal(), second.toordinal()]
        assert bars.days.dtype == np.int64 and not bars.days.flags.writeable
