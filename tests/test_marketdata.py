import csv
import faulthandler
import hashlib
import io
import math
import os
import stat
import tempfile
import threading
from concurrent.futures.process import BrokenProcessPool
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from duotrader.engine import run_backtest
from duotrader.errors import (
    DataAlignmentError,
    DataOrderingError,
    DuotraderError,
    InvalidInputError,
    ParameterError,
)
from duotrader import marketdata, workers
from duotrader.marketdata import (
    BAR_CSV_HEADER,
    IngestResult,
    InstrumentMeta,
    SymbolBars,
    ingest_csv,
    ingest_meta_csv,
    synth_regime_series,
)
from duotrader.runconfig import RunConfig

from conftest import cache_of, fresh_copy, log_returns, take_rows


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
        with pytest.raises(DuotraderError, match=r"meta\.csv:2: invalid metadata row$"):
            ingest_meta_csv(path)

    @pytest.mark.parametrize("row", ["XOM,Energy,-5", "XOM,Energy,0.5", ",Energy,7"])
    def test_meta_refused_row(self, tmp_path, row):
        # InstrumentMeta refuses the row; ingest names its line.
        path = tmp_path / "meta.csv"
        path.write_text(f"symbol,sector,shares_outstanding\n{row}\n")
        with pytest.raises(DuotraderError, match=r"meta\.csv:2: invalid metadata row$"):
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


    def test_meta_line_is_one_row(self, tmp_path):
        # A quoted field may not carry a row onto the next line: the file is
        # refused at the line that opens it, as a bar CSV's row would be.
        path = tmp_path / "meta_q.csv"
        path.write_text('symbol,sector,shares_outstanding\nXOM,"Ener\ngy",100\nCVX,Energy,abc\n')
        with pytest.raises(DuotraderError, match=r"meta_q\.csv:2: wrong field count$"):
            ingest_meta_csv(path)

    def test_meta_lines_counted_past_blank_and_crlf_lines(self, tmp_path):
        path = tmp_path / "meta.csv"
        path.write_bytes(b"symbol,sector,shares_outstanding\r\nCVX,Energy,100\r\n\r\n ,\r\nXOM,Energy,x\r\n")
        with pytest.raises(DuotraderError, match=r"meta\.csv:5: invalid shares_outstanding"):
            ingest_meta_csv(path)
        path.write_bytes(b"symbol,sector,shares_outstanding\r\nCVX,Energy,100\r\n\r\nXOM,Oil & Gas,7\r\n")
        meta = ingest_meta_csv(path)
        assert [(m.symbol, m.sector, m.shares_outstanding) for m in meta.values()] == [
            ("CVX", "Energy", 100), ("XOM", "Oil & Gas", 7)
        ]

def _columns(series: SymbolBars) -> list[np.ndarray]:
    return [series.days, series.open, series.high, series.low, series.close, series.volume]


def assert_same_ingest(a, b):
    assert list(a.bars_by_symbol) == list(b.bars_by_symbol)
    for symbol, series in a.bars_by_symbol.items():
        for x, y in zip(_columns(series), _columns(b.bars_by_symbol[symbol])):
            assert x.dtype == y.dtype and np.array_equal(x, y)
    assert a.rejected_rows == b.rejected_rows
    assert a.diagnostics == b.diagnostics


def _parse_float(text: str, default: float | None = None) -> float | None:
    text = text.strip()
    if not text:
        return default
    return float(text)


def _parse_price(text: str, default: float | None, name: str) -> float:
    """A finite positive price; a blank field gives ``default``."""
    value = _parse_float(text, default)
    if value is None or not math.isfinite(value) or value <= 0:
        raise ValueError(f"invalid {name}")
    return value


def reference_read_rows(path):
    """The whole-file row reader that ``ingest_csv`` replaced, with its price
    parser above, as they were but for opening the file: the reference for
    every outcome. It numbers csv
    records, not lines, so it reads a quoted field that spans lines as one
    row (see ``test_quoted_field_spanning_lines``)."""
    rows: dict[str, list[tuple]] = {}
    diagnostics: list[str] = []
    with marketdata._open_csv(path, BAR_CSV_HEADER, "bar") as handle:
        for lineno, row in enumerate(csv.reader(handle), start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(BAR_CSV_HEADER):
                diagnostics.append(f"{path}:{lineno}: wrong field count")
                continue
            symbol = row[0].strip()
            try:
                ts = date.fromisoformat(row[1].strip())
                close = _parse_price(row[5], None, "close")
                open_ = _parse_price(row[2], close, "open")
                high = _parse_price(row[3], close, "high")
                low = _parse_price(row[4], close, "low")
                vol_text = row[6].strip()
                volume = int(float(vol_text)) if vol_text else 0
            except (ValueError, OverflowError) as exc:
                diagnostics.append(f"{path}:{lineno}: {exc}")
                continue
            if not symbol:
                diagnostics.append(f"{path}:{lineno}: empty symbol")
                continue
            if volume < 0 or low > min(open_, close) or max(open_, close) > high:
                diagnostics.append(f"{path}:{lineno}: inconsistent OHLCV fields")
                continue
            prior = rows.setdefault(symbol, [])
            day = ts.toordinal()
            if prior and day <= prior[-1][0]:
                raise DataOrderingError(
                    f"{path}:{lineno}: {symbol} timestamp {ts} not after "
                    f"{date.fromordinal(prior[-1][0])}"
                )
            prior.append((day, open_, high, low, close, volume))
    columns = {}
    for symbol, records in rows.items():
        days, *fields = zip(*records)
        arrays = [np.array(days, dtype=np.int64)] + [np.array(f, dtype=float) for f in fields]
        columns[symbol] = SymbolBars(*arrays)
    return IngestResult(columns, diagnostics)


@pytest.fixture
def row_reads(monkeypatch, tmp_path):
    """Spy on the row reader: returns a function that takes the text of
    every range read row by row so far, in worker processes too, as bytes."""
    log = tmp_path / "row-reads"
    log.mkdir()
    read_lines = marketdata._read_lines

    def spy(text, skip):
        text.buffer.seek(0)
        data = text.buffer.read()
        (log / hashlib.sha256(data).hexdigest()).write_bytes(data)
        return read_lines(text, skip)

    def take():
        paths = list(log.iterdir())
        reads = sorted(p.read_bytes() for p in paths)
        for p in paths:
            p.unlink()
        return reads

    monkeypatch.setattr(marketdata, "_read_lines", spy)
    return take


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
XOM_LATER = XOM_ROW.replace("-02,", "-06,")


class TestFastPathParity:
    """``ingest_csv`` reads a file with numpy's C parser and reads it row by
    row only if it cannot show it to be clean; either way the outcome equals
    the reference row reader's."""

    @pytest.mark.parametrize(
        "rows, newline, row_read",
        [
            pytest.param([XOM_ROW.replace("XOM", LONG_SYMBOL)], "\n", False, id="long-symbol"),
            pytest.param([XOM_ROW.replace("XOM", '"XOM"')], "\n", True, id="quoted-symbol"),
            pytest.param([XOM_ROW.replace("XOM", " XOM ")], "\n", True, id="padded-symbol"),
            pytest.param(["XOM,2020-01-02,,,,70.5,"], "\n", True, id="blank-optionals"),
            pytest.param([XOM_ROW.replace("2020-01-02", "")], "\n", True, id="blank-date"),
            pytest.param([XOM_ROW.replace("2020-01-02", "NaT")], "\n", True, id="nat-date"),
            pytest.param(
                [XOM_ROW.replace("2020-01-02", "20150102")], "\n",
                not _iso_date_accepted("20150102"), id="basic-format-date",
            ),
            pytest.param([XOM_ROW.replace("2020-01-02", "2015-01")], "\n", True,
                         id="year-month-date"),
            pytest.param([XOM_ROW], "\r\n", False, id="crlf"),
            pytest.param([XOM_LATER, XOM_ROW], "\n", False, id="out-of-order"),
            pytest.param([XOM_LATER, "", XOM_ROW], "\r\n", False,
                         id="blank-line-then-out-of-order"),
            pytest.param([XOM_ROW.replace(",70.5,", ",abc,"), XOM_LATER, XOM_ROW], "\n", True,
                         id="rejected-row-then-out-of-order"),
            pytest.param([XOM_LATER, XOM_ROW, GOOD_ROWS[0]], "\n", False,
                         id="out-of-order-in-two-symbols"),
            pytest.param([XOM_ROW.replace(",100", ",1e400")], "\n", True,
                         id="infinite-volume"),
            pytest.param([XOM_ROW + ",7"], "\n", True, id="extra-field"),
            pytest.param([XOM_ROW, ""], "\n", False, id="blank-line"),
            pytest.param([XOM_ROW.replace("XOM", "")], "\n", True, id="empty-symbol"),
            pytest.param([XOM_ROW.replace("XOM", "   ")], "\n", True, id="blank-symbol"),
            pytest.param([XOM_ROW.replace("XOM", '"XOM"'), "", XOM_LATER], "\n", True,
                         id="blank-line-in-row-read"),
        ],
    )
    def test_hazard(self, tmp_path, row_reads, rows, newline, row_read):
        path = tmp_path / "bars.csv"
        text = HEADER + "".join(r + "\n" for r in GOOD_ROWS + rows)
        path.write_bytes(text.replace("\n", newline).encode())
        outcome = _outcome(ingest_csv, path)
        assert row_reads() == ([path.read_bytes()] if row_read else [])
        assert_same_outcome(outcome, _outcome(reference_read_rows, path))

    @pytest.mark.parametrize("value", ["0", "-5"])
    @pytest.mark.parametrize("column", ["open", "low"])
    def test_non_positive_price_rejected(self, tmp_path, row_reads, column, value):
        # The low goes with a non-positive open, so the OHLC order still
        # holds; the open is checked first.
        open_ = value if column == "open" else "70.0"
        path = write_bars(tmp_path, [*GOOD_ROWS, f"XOM,2020-01-02,{open_},71.0,{value},70.5,100"])
        result = ingest_csv(path)
        assert row_reads() == [path.read_bytes()]
        assert_same_ingest(result, reference_read_rows(path))
        assert result.rejected_rows == 1
        assert result.diagnostics == [f"{path}:4: invalid {column}"]

    def test_out_of_order_error_names_line(self, tmp_path):
        path = write_bars(tmp_path, [*GOOD_ROWS, XOM_LATER, XOM_ROW])
        with pytest.raises(DataOrderingError) as error:
            ingest_csv(path)
        assert str(error.value) == f"{path}:5: XOM timestamp 2020-01-02 not after 2020-01-06"

    def test_quoted_field_spanning_lines(self, tmp_path):
        # One line is one row: lines 3 and 4 are rejected on their own, and
        # the bad open is named on its own line, 5. The reference reader
        # reads lines 3-4 as one csv record, keeps it and names line 4.
        path = write_bars(tmp_path, [
            GOOD_ROWS[0],
            'CVX,"2020-01-03',
            '",111.0,112.0,110.5,111.25,2500',
            "XOM,2020-01-02,-1,71.0,69.5,70.5,100",
        ])
        result = ingest_csv(path)
        assert result.rejected_rows == 3
        assert result.diagnostics == [
            f"{path}:3: wrong field count", f"{path}:4: wrong field count",
            f"{path}:5: invalid open",
        ]
        assert len(result.bars_by_symbol["CVX"]) == 1
        reference = reference_read_rows(path)
        assert reference.diagnostics == [f"{path}:4: invalid open"]
        assert len(reference.bars_by_symbol["CVX"]) == 2

    def test_generated_market_takes_fast_path(self, tmp_path, row_reads):
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
        result = ingest_csv(path)
        assert row_reads() == []
        assert list(result.bars_by_symbol) == ["S02", "S00", "S01"]
        ingested = result.bars_by_symbol
        for symbol, bars in generated.items():
            assert all(np.array_equal(x, y) for x, y in zip(_columns(ingested[symbol]), _columns(bars)))
        # Each symbol's columns are slices of one array per field, not copies.
        assert ingested["S02"].close.base is ingested["S01"].close.base is not None
        assert_same_ingest(result, reference_read_rows(path))

    def test_unordered_days_rejected(self):
        # run_backtest takes only SymbolBars, whose construction refuses
        # days that do not strictly increase, day ordinals that are not
        # dates, at either end and on an unusable bar too, and days that are
        # not signed integers.
        bars, _ = synth_regime_series(4, 3, [(0.0, 0.01)], [[1.0]])
        with pytest.raises(DataOrderingError):
            run_backtest({"S": take_rows(bars, [0, 2, 1])}, {}, RunConfig())
        with pytest.raises(DataOrderingError):
            take_rows(bars, [0, 1, 1])
        columns, last = _columns(bars), date.max.toordinal()
        for first, bad in ((-5, -5), (0, 0), (last - 1, last + 1)):
            for volume in (columns[5], np.full(3, np.nan)):
                with pytest.raises(InvalidInputError, match=f"^day ordinal {bad} is not a date$"):
                    SymbolBars(np.arange(first, first + 3), *columns[1:5], volume)
        SymbolBars(np.array([1, 2, last]), *columns[1:])  # the calendar's ends
        # Float days would fail later as indices, and unsigned days wrap in
        # the order check, which would pass these decreasing ones.
        for days in (columns[0].astype(float), np.array([738000, 737999, 737998], dtype=np.uint64)):
            message = f"^day ordinals must be signed integers, got {days.dtype}$"
            with pytest.raises(InvalidInputError, match=message):
                SymbolBars(days, *columns[1:])

    def test_columns_of_unequal_length_rejected(self):
        bars, _ = synth_regime_series(4, 3, [(0.0, 0.01)], [[1.0]])
        columns = _columns(bars)
        columns[4] = columns[4][:2]
        with pytest.raises(DataAlignmentError):
            SymbolBars(*columns)


def day_major_rows(n_days, symbols):
    """Clean rows, day by day with one row per symbol each day, so every
    symbol's rows run through the whole file."""
    rows = []
    for d in range(n_days):
        day = date(2020, 1, 2) + timedelta(days=d)
        for i, symbol in enumerate(symbols):
            close = 50.0 + i + d / 8
            rows.append(f"{symbol},{day},{close - 0.25},{close + 1},{close - 1},{close},{1000 + d}")
    return rows


def csv_text(rows, sep="\n", end="\n"):
    return HEADER + sep.join(rows) + end


def with_field(rows, row, column, value):
    """The rows with one field of row ``row`` replaced."""
    fields = rows[row].split(",")
    fields[column] = value
    return rows[:row] + [",".join(fields)] + rows[row + 1:]


SPLIT_SYMBOLS = ["XOM", "CVX", "COP"]
SPLIT_ROWS = day_major_rows(30, SPLIT_SYMBOLS)
LATE_ROWS = [
    "LATE,2020-03-02,10.0,11.0,9.0,10.5,100",
    "LATE,2020-03-03,10.5,11.0,10.0,10.75,200",
]
OUT_OF_ORDER_ROW = SPLIT_ROWS[-6].replace("1028", "99")  # XOM's day 28 after its day 29
# Each case's text; the marker of what the case must put after the last
# range start (None: nothing); and the markers of its dirty rows, each of
# which sends the range that holds it to the row reader.
SPLIT_CASES = {
    "straddling-symbols": (csv_text(SPLIT_ROWS), None, []),
    "first-in-last-range": (csv_text(SPLIT_ROWS + LATE_ROWS), "LATE", []),
    "parse-error-in-last-range": (csv_text(with_field(SPLIT_ROWS, -3, 5, "abc")), "abc", ["abc"]),
    "rejected-row-in-last-range": (
        csv_text(with_field(SPLIT_ROWS, -3, 3, "9.5")), ",9.5,", [",9.5,"],
    ),
    "out-of-order-in-last-range": (csv_text(SPLIT_ROWS + [OUT_OF_ORDER_ROW]), ",99\n", []),
    "crlf": (csv_text(SPLIT_ROWS).replace("\n", "\r\n"), None, []),
    "blank-lines-at-cuts": (csv_text(SPLIT_ROWS, sep="\n\n"), None, []),
    "blank-lines-then-out-of-order": (
        csv_text(SPLIT_ROWS + [OUT_OF_ORDER_ROW], sep="\n\n"), ",99\n", [],
    ),
    "dirty-range-then-out-of-order": (
        csv_text(with_field(SPLIT_ROWS, 1, 5, "abc") + [OUT_OF_ORDER_ROW]), ",99\n", ["abc"],
    ),
    "dirty-first-range-clean-last-range": (
        csv_text(with_field(with_field(SPLIT_ROWS, 1, 3, "9.5"), 4, 6, "")), None,
        [",9.5,", "\nCVX,2020-01-03,50.875,52.125,50.125,51.125,\n"],
    ),
    "no-trailing-newline": (csv_text(SPLIT_ROWS, end=""), None, []),
    "more-ranges-than-lines": (csv_text(SPLIT_ROWS[:1]), None, []),
}


def split_into_ranges(monkeypatch, cpus, range_bytes=1):
    """Make ``ingest_csv`` split a file of ``range_bytes`` per CPU into
    ranges as if ``cpus`` CPUs were usable."""
    monkeypatch.setattr(marketdata, "INGEST_RANGE_BYTES", range_bytes)
    monkeypatch.setattr(workers, "usable_cpus", lambda: cpus)


def range_starts(data: bytes, count: int) -> list[int]:
    """Where a split into ``count`` ranges starts each range after the
    first: past the line that holds byte size * k // count."""
    return [(data.find(b"\n", len(data) * k // count) + 1) or len(data) for k in range(1, count)]


def dirty_ranges(text: str, count: int, dirt: list[str]) -> list[bytes]:
    """The ranges of a split into ``count`` that hold a dirty row, sorted."""
    data = text.encode()
    cuts = [0, *range_starts(data, count), len(data)]
    ranges = [data[a:b] for a, b in zip(cuts, cuts[1:])]
    return sorted(r for r in ranges if any(d.encode() in r for d in dirt))


class TestSplitIngest:
    """A bar CSV of at least ``INGEST_RANGE_BYTES`` per usable CPU, for two
    or more CPUs, is parsed in forked workers, one byte range of whole lines
    each; only a range with a dirty row is read row by row, and the outcome
    equals the one-range path's and the reference row reader's."""

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_cases_put_their_hazard_at_a_cut(self, cpus):
        for name, (text, marker, dirt) in SPLIT_CASES.items():
            data = text.encode()
            starts = range_starts(data, cpus)
            if marker is not None:
                assert data.index(marker.encode()) >= starts[-1], name
            assert all(data.count(d.encode()) == 1 for d in dirt), name
        straddling = SPLIT_CASES["straddling-symbols"][0].encode()
        assert all(
            s.encode() in straddling[:start] and s.encode() in straddling[start:]
            for start in range_starts(straddling, cpus) for s in SPLIT_SYMBOLS
        )
        blank_lines = SPLIT_CASES["blank-lines-at-cuts"][0].encode()
        starts = range_starts(blank_lines, cpus)
        assert any(blank_lines[start:start + 1] == b"\n" for start in starts)
        # Every range but the first is clean; the first holds both dirty rows.
        text, _, dirt = SPLIT_CASES["dirty-first-range-clean-last-range"]
        assert dirty_ranges(text, cpus, dirt) == [text.encode()[:range_starts(text.encode(), cpus)[0]]]
        # A header and one row make fewer non-empty ranges than there are CPUs.
        single = SPLIT_CASES["more-ranges-than-lines"][0].encode()
        assert len(set(range_starts(single, cpus) + [len(single)])) < cpus

    @pytest.mark.parametrize("cpus", [2, 3])
    @pytest.mark.parametrize("name", list(SPLIT_CASES))
    def test_split_matches_one_range_and_rows(
        self, tmp_path, monkeypatch, pools, row_reads, parses, name, cpus
    ):
        text, _, dirt = SPLIT_CASES[name]
        path = fresh_copy(tmp_path / "bars.csv", text.encode())
        one_range = _outcome(ingest_csv, path)
        assert pools == []
        assert row_reads() == dirty_ranges(text, 1, dirt)
        split_into_ranges(monkeypatch, cpus)
        outcome = _outcome(ingest_csv, fresh_copy(path, text.encode()))
        assert pools == [cpus]
        assert row_reads() == dirty_ranges(text, cpus, dirt)
        assert_same_outcome(outcome, one_range)
        assert_same_outcome(outcome, _outcome(reference_read_rows, path))
        assert parses == [path, path]  # both ingests parsed the file

    def test_file_under_two_ranges_starts_no_pool(self, tmp_path, monkeypatch, pools, parses):
        data = csv_text(SPLIT_ROWS).encode()
        path = fresh_copy(tmp_path / "bars.csv", data)
        split_into_ranges(monkeypatch, 3, range_bytes=len(data) // 2 + 1)
        assert list(ingest_csv(path).bars_by_symbol) == SPLIT_SYMBOLS
        assert pools == []
        split_into_ranges(monkeypatch, 3, range_bytes=len(data) // 2)
        assert list(ingest_csv(fresh_copy(path, data)).bars_by_symbol) == SPLIT_SYMBOLS
        assert pools == [2]
        assert parses == [path, path]  # both ingests parsed the file

    def test_dead_ingest_worker_raises(self, tmp_path, monkeypatch):
        test_pid = os.getpid()
        read_range = marketdata._read_range

        def die_in_worker(*args, **kwargs):
            if os.getpid() != test_pid:
                os._exit(1)
            return read_range(*args, **kwargs)

        path = tmp_path / "bars.csv"
        path.write_text(csv_text(SPLIT_ROWS))
        split_into_ranges(monkeypatch, 2)
        monkeypatch.setattr(marketdata, "_read_range", die_in_worker)
        # A hang ends the test process with a traceback instead of stalling.
        faulthandler.dump_traceback_later(120, exit=True)
        try:
            with pytest.raises(BrokenProcessPool):
                ingest_csv(path)
        finally:
            faulthandler.cancel_dump_traceback_later()


@pytest.fixture
def parses(monkeypatch):
    """The paths of every parse ``ingest_csv`` has started, in order."""
    started = []
    read_ranges = marketdata._read_ranges

    def spy(path):
        started.append(path)
        return read_ranges(path)

    monkeypatch.setattr(marketdata, "_read_ranges", spy)
    return started


@pytest.fixture
def threads_at_parse(monkeypatch):
    """The threads, beyond those alive when the test started, that were alive
    as each parse ``ingest_csv`` started, one list per parse: ``_read_ranges``
    may fork its workers, and a fork beside a live thread is unsafe."""
    before = set(threading.enumerate())
    seen = []
    read_ranges = marketdata._read_ranges

    def spy(path):
        seen.append(sorted(t.name for t in set(threading.enumerate()) - before))
        return read_ranges(path)

    monkeypatch.setattr(marketdata, "_read_ranges", spy)
    return seen


def key_threads(monkeypatch):
    """The thread of every cache key ``ingest_csv`` takes from now on, in order."""
    taken = []
    cache_key = marketdata._cache_key

    def spy(path):
        taken.append(threading.current_thread())
        return cache_key(path)

    monkeypatch.setattr(marketdata, "_cache_key", spy)
    return taken


# Spoils that write the whole record, so the CSV needs no ingest before them.
WHOLE_RECORD_SPOILS = ("foreign-key", "older-stamp-only")


def spoil(kind, cache, tmp_path, monkeypatch):
    """Make the cache record ``cache`` one that ``_load`` must refuse or
    whose key must not match. Only the kinds of ``WHOLE_RECORD_SPOILS``
    write it whole; the others change the record the CSV's ingest kept."""
    path = cache.with_name(cache.name[1:].removesuffix(".ingest.npz"))
    if kind == "truncated":
        cache.write_bytes(cache.read_bytes()[: cache.stat().st_size // 2])
    elif kind == "garbage":
        cache.write_bytes(bytes(range(256)) * 40)
    elif kind == "code-stamp":
        monkeypatch.setattr(np, "__version__", "0.0.0")
    elif kind == "python-version":
        monkeypatch.setattr(marketdata.sys, "version", "0.0.0")
    elif kind == "foreign-key":  # another file's record
        other = write_bars(tmp_path, [XOM_ROW], name="other.csv")
        ingest_csv(other)
        cache_of(other).replace(cache)
    elif kind == "older-stamp-only":  # as an older version wrote it for a file's first ingest
        stamp = np.array(marketdata._stamp(path), dtype=np.int64)
        np.savez(cache, stamp=stamp, key=np.array(""))
    else:
        with np.load(cache) as kept:
            arrays = dict(kept)
        if kind == "older-columns":  # as an older version wrote it: a stamp, another key
            arrays.update(
                stamp=np.array(marketdata._stamp(path), dtype=np.int64),
                key=np.array(hashlib.sha256(b"older code").hexdigest()),
            )
        elif kind == "dtype":
            arrays["close"] = arrays["close"].astype(np.float32)
        elif kind == "shape":
            arrays["bounds"] = arrays["bounds"][:-1]
        elif kind == "bounds":
            arrays["bounds"] = arrays["bounds"][::-1].copy()
        elif kind == "days":  # under this file's key, days a parse never keeps
            arrays["days"] = arrays["days"][::-1].copy()
        np.savez(cache, **arrays)


# The defects a drawn row may carry, each as (field, value); field 7 is an
# extra field.
ROW_DEFECTS = [
    (0, ""), (2, "0"), (4, "71.0"), (5, ""), (5, "abc"), (5, "-1"), (6, "-5"), (6, "1e400"),
    (7, "7"),
]


@st.composite
def bar_csvs(draw):
    """Small bar CSV texts: padded or quoted symbols, blank optional fields,
    rows with one defect each (rejected), blank lines, LF or CRLF line ends,
    and now and then a day that does not increase."""
    lines = []
    for i in range(draw(st.integers(0, 12))):
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(["", "  ", ",,,,,,"])))
            continue
        day = date(2020, 1, 2) + timedelta(days=i - draw(st.sampled_from([0] * 5 + [1])))
        fields = [
            draw(st.sampled_from(["XOM", "CVX", " XOM", "CVX ", '"XOM"'])), str(day),
            draw(st.sampled_from(["", "70.0"])), draw(st.sampled_from(["", "72.0"])),
            draw(st.sampled_from(["", "69.0"])), "70.5",
            draw(st.sampled_from(["", "100", "2500.7"])), None,
        ]
        field, value = draw(st.sampled_from([(7, None)] * len(ROW_DEFECTS) + ROW_DEFECTS))
        fields[field] = value
        lines.append(",".join(f for f in fields if f is not None))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    end = draw(st.sampled_from([newline, ""])) if lines else ""
    return (HEADER + newline.join(lines) + end).replace("\n", newline, 1)


class TestIngestCache:
    """A bar CSV, whatever its size, is parsed once per content: every
    ingest takes the key of the file's bytes and the ingest code on a second
    thread while it loads the record beside the file; a matching key gives
    the record's columns, and any other outcome parses the file and records
    its grouped columns under the key. Either way the outcome is the parse's."""

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("name", list(SPLIT_CASES))
    def test_cold_warm_and_rows_agree(
        self, tmp_path, monkeypatch, pools, row_reads, parses, name, cpus
    ):
        text, _, dirt = SPLIT_CASES[name]
        path = tmp_path / "bars.csv"
        path.write_bytes(text.encode())
        split_into_ranges(monkeypatch, cpus)
        cold = _outcome(ingest_csv, path)
        failed = isinstance(cold, DataOrderingError)
        assert cache_of(path).exists() != failed
        assert row_reads() == dirty_ranges(text, cpus, dirt)
        recorded = None if failed else cache_of(path).stat().st_ino
        warm = [_outcome(ingest_csv, path) for _ in range(2)]
        # A failed parse records nothing, so each ingest parses again.
        assert len(parses) == (3 if failed else 1)
        assert pools == ([cpus] * len(parses) if cpus > 1 else [])
        assert row_reads() == (dirty_ranges(text, cpus, dirt) if failed else [])
        if not failed:  # loaded: a parse would have renamed a new record over it
            assert cache_of(path).stat().st_ino == recorded
        for outcome in warm:
            assert_same_outcome(outcome, cold)
        assert_same_outcome(warm[-1], _outcome(reference_read_rows, path))

    @pytest.mark.parametrize("change", ["identical-copy", "touched"])
    def test_same_bytes_load_without_a_parse(self, tmp_path, parses, change):
        # The same bytes under a new inode and mtime, or a new mtime alone.
        path = write_bars(tmp_path, [*GOOD_ROWS, XOM_ROW.replace(",70.5,", ",abc,"), XOM_LATER])
        cold = ingest_csv(path)
        recorded = cache_of(path).stat().st_ino
        if change == "identical-copy":
            copy = tmp_path / "copy.csv"
            copy.write_bytes(path.read_bytes())
            copy.replace(path)
        else:
            os.utime(path, ns=(path.stat().st_atime_ns, path.stat().st_mtime_ns + 10**9))
        assert_same_ingest(ingest_csv(path), cold)
        assert parses == [path]
        assert cache_of(path).stat().st_ino == recorded

    def test_same_size_edit_with_old_mtime_is_parsed_again(self, tmp_path, parses):
        path = write_bars(tmp_path, [*GOOD_ROWS, XOM_ROW])
        ingest_csv(path)
        before = path.stat()
        path.write_bytes(path.read_bytes().replace(b",111.25,", b",111.75,"))
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        after = path.stat()
        assert marketdata._stamp(path) == (before.st_ino, before.st_size, before.st_mtime_ns)
        assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
        edited = ingest_csv(path)
        assert len(parses) == 2
        assert edited.bars_by_symbol["CVX"].close.tolist() == [111.0, 111.75]
        assert_same_ingest(edited, reference_read_rows(path))
        assert_same_ingest(ingest_csv(path), edited)
        assert len(parses) == 2

    @pytest.mark.parametrize("when", ["hash", "parse"])
    def test_file_replaced_during_its_ingest_keeps_nothing(
        self, tmp_path, monkeypatch, parses, when
    ):
        # The CSV is edited after its record was kept, and a new file is
        # renamed over it once the key of the edited bytes is taken, or as
        # the parse starts: the ingest parses the new file and records
        # nothing under the edited bytes' key. The next ingest parses the
        # new file and records it, and later ones load it.
        path = write_bars(tmp_path, [*GOOD_ROWS, XOM_ROW])
        ingest_csv(path)
        recorded = cache_of(path).read_bytes()
        path.write_bytes(path.read_bytes().replace(b",111.25,", b",111.75,"))
        fresh = write_bars(tmp_path, [*GOOD_ROWS, XOM_ROW, XOM_LATER], name="fresh.csv")
        seam = {"hash": "_cache_key", "parse": "_read_ranges"}[when]
        call = getattr(marketdata, seam)

        def call_beside_the_replace(p):
            if when == "parse":
                fresh.replace(path)
            out = call(p)
            if when == "hash":
                fresh.replace(path)
            return out

        monkeypatch.setattr(marketdata, seam, call_beside_the_replace)
        assert ingest_csv(path).bars_by_symbol["XOM"].close.tolist() == [70.5, 70.5]
        monkeypatch.setattr(marketdata, seam, call)
        assert cache_of(path).read_bytes() == recorded
        for _ in range(3):
            assert_same_ingest(ingest_csv(path), reference_read_rows(path))
        assert ingest_csv(path).bars_by_symbol["XOM"].close.tolist() == [70.5, 70.5]
        assert len(parses) == 3

    @pytest.mark.parametrize(
        "kind, parsed",
        [("truncated", 2), ("garbage", 2), ("dtype", 2), ("shape", 2), ("bounds", 2),
         ("days", 2), ("foreign-key", 1), ("code-stamp", 2), ("python-version", 2),
         ("older-stamp-only", 1), ("older-columns", 2)],
    )
    def test_refused_cache_is_parsed_over_and_replaced(
        self, tmp_path, monkeypatch, parses, kind, parsed
    ):
        # A record that cannot be read, holds another file's key or one of
        # other code, or is in the format of an older version, which recorded
        # the file's stamp, is parsed over and replaced, and the next ingest
        # loads. ``parsed``
        # counts the file's parses: the ingest that meets the spoiled record,
        # after the one that kept the record unless the spoil wrote it whole.
        path = write_bars(tmp_path, [*GOOD_ROWS, XOM_ROW.replace(",70.5,", ",abc,"), XOM_LATER])
        expected = reference_read_rows(path)
        cache = cache_of(path)
        if kind not in WHOLE_RECORD_SPOILS:
            assert_same_ingest(ingest_csv(path), expected)
        spoil(kind, cache, tmp_path, monkeypatch)
        spoiled = cache.read_bytes()
        for _ in range(2):
            assert_same_ingest(ingest_csv(path), expected)
            assert cache.read_bytes() != spoiled
        assert parses.count(path) == parsed

    @pytest.mark.parametrize(
        "case", ["read-only-directory", "cache-path-is-a-directory", "nul-in-symbol"]
    )
    def test_unkept_cache_leaves_no_file(self, tmp_path, monkeypatch, parses, case):
        symbol = "XOM\0" if case == "nul-in-symbol" else "XOM"
        path = write_bars(tmp_path, [*GOOD_ROWS, XOM_ROW.replace("XOM", symbol)])
        entries = {path.name}
        if case == "cache-path-is-a-directory":
            cache_of(path).mkdir()
            entries.add(cache_of(path).name)
        elif case == "read-only-directory":
            tmp_path.chmod(0o555)
            if os.access(tmp_path, os.W_OK):  # root writes anyway: refuse as the OS would
                def refuse(*args, **kwargs):
                    raise PermissionError(13, "Permission denied")

                monkeypatch.setattr(marketdata.tempfile, "NamedTemporaryFile", refuse)
        try:
            results = [ingest_csv(path) for _ in range(3)]
        finally:
            tmp_path.chmod(0o755)
        assert len(parses) == 3
        assert {p.name for p in tmp_path.iterdir()} == entries
        assert list(results[0].bars_by_symbol) == ["CVX", symbol]
        for result in results:
            assert_same_ingest(result, reference_read_rows(path))

    @pytest.mark.parametrize("mode", [0o644, 0o600], ids=oct)
    def test_record_takes_the_csv_permission_bits(self, tmp_path, mode):
        # Whoever can read the CSV can read its record, and no one else can.
        path = write_bars(tmp_path, [*GOOD_ROWS, XOM_ROW])
        path.chmod(mode)
        ingest_csv(path)
        recorded = cache_of(path).stat()
        assert stat.S_IMODE(recorded.st_mode) == mode
        ingest_csv(path)  # loads, leaving the record as it is
        assert cache_of(path).stat() == recorded

    def test_failed_parse_leaves_no_file(self, tmp_path):
        path = write_bars(tmp_path, [*GOOD_ROWS, XOM_LATER, XOM_ROW])
        for _ in range(2):
            with pytest.raises(DataOrderingError):
                ingest_csv(path)
            assert not cache_of(path).exists()

    def test_file_without_a_kept_row_loads_warm(self, tmp_path, parses):
        path = write_bars(tmp_path, [XOM_ROW.replace(",70.5,", ",abc,"), XOM_ROW + ",7"])
        results = [ingest_csv(path) for _ in range(3)]
        assert len(parses) == 1
        assert results[0].bars_by_symbol == {} and results[0].rejected_rows == 2
        for result in results[1:]:
            assert_same_ingest(result, results[0])
        assert_same_ingest(results[2], reference_read_rows(path))

    def test_warm_diagnostics_name_the_path_as_passed(self, tmp_path, monkeypatch, parses):
        monkeypatch.chdir(tmp_path)
        path = write_bars(tmp_path, [*GOOD_ROWS, XOM_ROW.replace(",70.0,", ",-1,")])
        for name in ("bars.csv", path, "bars.csv", path):
            assert ingest_csv(name).diagnostics == [f"{name}:4: invalid open"]
        assert parses == [Path("bars.csv")]

    def test_warm_key_is_taken_on_a_second_thread(self, tmp_path, monkeypatch, parses):
        path = write_bars(tmp_path, [*GOOD_ROWS, XOM_ROW.replace(",70.0,", ",-1,"), XOM_LATER])
        taken = key_threads(monkeypatch)
        caller = threading.current_thread()
        outcomes = [_outcome(ingest_csv, path) for _ in range(3)]
        assert len(parses) == 1
        # Every ingest, the first too, takes the key on a thread that it
        # joins before it returns.
        assert len(taken) == 3
        assert not any(t is caller or t.is_alive() for t in taken)
        for outcome in outcomes:
            assert_same_outcome(outcome, _outcome(reference_read_rows, path))

    @pytest.mark.parametrize(
        "case", ["first", "refused", "same-stamp-edit", "replaced-during-hash"]
    )
    def test_no_thread_is_alive_when_a_parse_starts(
        self, tmp_path, monkeypatch, threads_at_parse, case
    ):
        path = write_bars(tmp_path, [*GOOD_ROWS, XOM_ROW])
        ingests = 1 if case == "first" else 2
        if case != "first":
            ingest_csv(path)
        if case == "refused":  # the key kept, the columns refused
            spoil("dtype", cache_of(path), tmp_path, monkeypatch)
        elif case == "same-stamp-edit":
            before = path.stat()
            path.write_bytes(path.read_bytes().replace(b",111.25,", b",111.75,"))
            os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        elif case == "replaced-during-hash":  # on the key's own thread
            fresh = write_bars(tmp_path, [*GOOD_ROWS, XOM_ROW, XOM_LATER], name="fresh.csv")
            cache_key = marketdata._cache_key

            def replace_then_hash(p):
                fresh.replace(path)
                return cache_key(p)

            monkeypatch.setattr(marketdata, "_cache_key", replace_then_hash)
        taken = key_threads(monkeypatch)
        caller = threading.current_thread()
        outcome = ingest_csv(path)
        assert threads_at_parse == [[]] * ingests
        assert len(taken) == 1 and taken[0] is not caller and not taken[0].is_alive()
        assert_same_ingest(outcome, reference_read_rows(path))

    def test_key_error_on_its_thread_reaches_the_caller(self, tmp_path, monkeypatch, parses):
        path = write_bars(tmp_path, [*GOOD_ROWS, XOM_ROW])
        cache_key = marketdata._cache_key
        raised_on = []

        def refuse(p):
            raised_on.append(threading.current_thread())
            raise PermissionError(13, "Permission denied", str(p))

        # Without a record, then beside one: the error ends the ingest
        # before any parse, and the record stays as it was.
        for recorded in (False, True):
            if recorded:
                monkeypatch.setattr(marketdata, "_cache_key", cache_key)
                ingest_csv(path)
                kept = cache_of(path).read_bytes()
            monkeypatch.setattr(marketdata, "_cache_key", refuse)
            with pytest.raises(DuotraderError) as error:
                ingest_csv(path)
            assert str(error.value) == (
                f"cannot read bar file {path}: [Errno 13] Permission denied: '{path}'"
            )
            assert isinstance(error.value.__cause__, PermissionError)
            assert raised_on[-1] is not threading.current_thread()
            assert len(parses) == int(recorded)
            assert (cache_of(path).read_bytes() == kept) if recorded else not cache_of(path).exists()
        assert len(raised_on) == 2

    @settings(max_examples=250, derandomize=True, database=None, deadline=None)
    @given(bar_csvs())
    def test_first_and_loaded_ingests_agree_with_rows(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "bars.csv"
            path.write_bytes(text.encode())
            first = _outcome(ingest_csv, path)
            failed = isinstance(first, DataOrderingError)
            assert cache_of(path).exists() != failed
            recorded = None if failed else cache_of(path).stat().st_ino
            second = _outcome(ingest_csv, path)
            if not failed:  # loaded: a parse would have renamed a new record over it
                assert cache_of(path).stat().st_ino == recorded
            assert_same_outcome(first, second)
            assert_same_outcome(second, _outcome(reference_read_rows, path))


class TestInstrumentMeta:
    @pytest.mark.parametrize("symbol, shares", [("S00", 0), ("S00", -5), ("", 100)])
    def test_refused_when_built(self, symbol, shares):
        # Shares of 0 gave a market cap of 0, and a one-symbol universe 0/0
        # market weights, which crashed the book: "cannot convert float NaN
        # to integer".
        with pytest.raises(InvalidInputError, match="^invalid metadata row$"):
            InstrumentMeta(symbol, "Energy", shares)

    def test_one_share_is_enough(self):
        assert InstrumentMeta("S00", "Energy", 1).shares_outstanding == 1


# Bar fields at the edge of each rule of a usable bar: NaN, both
# infinities, both zeros, a negative, subnormals, the largest float and a
# few small prices, sometimes ordered and sometimes not.
EDGE_PRICES = [
    math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 5e-324, 2e-310, 1.7976931348623157e308,
    1.0, 2.0, 3.0,
]
EDGE_VOLUMES = [math.nan, math.inf, -math.inf, -1.0, -0.0, 0.0, 1.0, 1e300]
# Open, high, low and close drawn from the edges, or ordered and positive.
BAR_PRICES = st.lists(
    st.sampled_from(EDGE_PRICES) | st.floats(-4.0, 4.0), min_size=4, max_size=4
) | st.lists(
    st.floats(0.0, exclude_min=True, allow_infinity=False), min_size=4, max_size=4
).map(sorted).map(lambda p: [p[1], p[3], p[0], p[2]])


class TestUsableBarRule:
    """One rule decides which bar is usable: ``SymbolBars`` accepts a bar
    exactly when ingest keeps the same bar written as a CSV row, read row by
    row (``_read_lines``) or by the C parser first (``_read_range``)."""

    @settings(max_examples=600, derandomize=True, database=None, deadline=None)
    @given(BAR_PRICES, st.sampled_from(EDGE_VOLUMES) | st.integers(-3, 10**12).map(float))
    @example([2.0, 3.0, 1.0, 2.0], 100.0)  # usable
    @example([math.nan, 3.0, 1.0, 2.0], 100.0)  # np.fmin and np.fmax drop the NaN
    @example([2.0, math.inf, 1.0, 2.0], 100.0)
    @example([2.0, 3.0, 1.0, 2.0], math.inf)
    @example([2.0, 3.0, 1.0, 2.0], -1.0)
    def test_symbolbars_accepts_what_ingest_keeps(self, prices, volume):
        fields = [*prices, volume]
        line = "XOM,2020-01-02," + ",".join(repr(x) for x in fields) + "\n"
        try:
            SymbolBars(np.array([737426]), *(np.array([x]) for x in fields))
            accepted = True
        except InvalidInputError:
            accepted = False
        for read in (marketdata._read_lines, marketdata._read_range):
            kept = read(io.StringIO(HEADER + line), 1)
            assert len(kept.lines) == int(accepted)
            if accepted:
                assert [f.tolist() for f in kept.fields] == [[x] for x in fields]


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
