"""Daily bar ingestion and synthetic regime-switching data.

All prices are daily closes in currency units. Each symbol's history is
columns (``SymbolBars``), not one object per bar. One rule (``_usable``)
says which bar is usable: ingestion drops a row that breaks it, and
``SymbolBars`` refuses to hold one, so no reader checks prices again. A
per-symbol timestamp that does not increase is fatal.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import math
import operator
import os
import sys
import tempfile
import warnings
import zipfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import workers
from .errors import (
    DataAlignmentError,
    DataOrderingError,
    DuotraderError,
    InvalidInputError,
    ParameterError,
)

BAR_CSV_HEADER = ["symbol", "date", "open", "high", "low", "close", "volume"]
META_CSV_HEADER = ["symbol", "sector", "shares_outstanding"]


@dataclass(frozen=True)
class InstrumentMeta:
    """Static per-symbol metadata used by the universe filters. Construction
    refuses an empty symbol and shares outstanding below 1."""

    symbol: str
    sector: str
    shares_outstanding: int

    def __post_init__(self):
        if not self.symbol or not self.shares_outstanding >= 1:
            raise InvalidInputError("invalid metadata row")


def _usable(open_, high, low, close, volume) -> np.ndarray:
    """The mask of usable bars: finite, positive, ordered prices (low <= open,
    close <= high < inf) and a finite, non-negative volume. np.minimum and
    np.maximum pass a NaN open or close on to fail the ordering (np.fmin and
    np.fmax would drop it)."""
    return (
        (low > 0) & (low <= np.minimum(open_, close)) & (np.maximum(open_, close) <= high)
        & (high < np.inf) & (volume >= 0) & (volume < np.inf)
    )


@dataclass(frozen=True, eq=False)
class SymbolBars:
    """One symbol's daily history as columns, oldest first: ``days`` holds
    strictly increasing day ordinals (``date.toordinal``) as signed integers,
    and the other five float64 arrays hold that day's fields. A volume is a
    whole number of shares. Construction checks that the six columns share
    one length, that the days are signed integers, strictly increase and are
    dates, and that every bar is usable (``_usable``), and makes every column
    read-only; it copies none of them."""

    days: np.ndarray
    open: np.ndarray
    high: np.ndarray
    low: np.ndarray
    close: np.ndarray
    volume: np.ndarray

    def __post_init__(self):
        columns = (self.days, self.open, self.high, self.low, self.close, self.volume)
        if any(column.shape != (self.days.size,) for column in columns):
            raise DataAlignmentError("the columns of a SymbolBars must share one length")
        if self.days.dtype.kind != "i":
            raise InvalidInputError(f"day ordinals must be signed integers, got {self.days.dtype}")
        if np.any(np.diff(self.days) <= 0):
            raise DataOrderingError("bars must be in strictly increasing day order")
        # The days increase, so only the first or the last can lie outside
        # the calendar.
        for day in self.days[[0, -1]].tolist() if self.days.size else ():
            if not 1 <= day <= date.max.toordinal():
                raise InvalidInputError(f"day ordinal {day} is not a date")
        if not (usable := _usable(*columns[1:])).all():
            row = int(usable.argmin())
            fields = (f"{name} {float(c[row])}" for name, c in zip(BAR_CSV_HEADER[2:], columns[1:]))
            day = date.fromordinal(int(self.days[row]))
            raise InvalidInputError(f"{day}: unusable bar: {', '.join(fields)}")
        for column in columns:
            column.flags.writeable = False

    def __len__(self) -> int:
        return self.days.size


@dataclass
class IngestResult:
    """Per-symbol columns, in the order each symbol first appears, plus
    ingestion diagnostics: one per rejected row."""

    bars_by_symbol: dict[str, SymbolBars]
    diagnostics: list[str] = field(default_factory=list)

    @property
    def rejected_rows(self) -> int:
        return len(self.diagnostics)


# A bar CSV is parsed in min(usable CPUs, file bytes // INGEST_RANGE_BYTES)
# byte ranges by forked workers when that makes two or more, else in-process.
INGEST_RANGE_BYTES = 8 << 20
_CACHE_COLUMNS = ("days", *BAR_CSV_HEADER[2:])

# One CSV row as numpy's C parser reads it. Symbols and dates stay Python
# strings (a fixed-width string field would silently truncate a long one).
_ROW_DTYPE = np.dtype(
    [("symbol", object), ("date", object)]
    + [(name, np.float64) for name in BAR_CSV_HEADER[2:]]
)


def _parse_price(text: str, default: float | None, name: str) -> float:
    """A finite positive price; a blank field gives ``default``."""
    text = text.strip()
    value = float(text) if text else default
    if value is None or not math.isfinite(value) or value <= 0:
        raise ValueError(f"invalid {name}")
    return value


def _cells(line: str) -> list[str] | None:
    """One physical line read as one CSV row on its own; None if it is blank."""
    row = next(csv.reader((line,)))
    return row if any(cell.strip() for cell in row) else None


@contextlib.contextmanager
def _open_csv(path: Path, header: list[str], kind: str):
    """The CSV's handle, past its header, which it checks. An OS error or a
    byte that is not UTF-8, met here or in the block, raises ``cannot read
    <kind> file``."""
    try:
        with path.open(newline="") as handle:
            found = next(csv.reader(handle), None)
            if found is None or [h.strip().lower() for h in found] != header:
                raise DuotraderError(f"{path}: expected header {','.join(header)}, got {found}")
            yield handle
    except (OSError, UnicodeDecodeError) as exc:
        raise DuotraderError(f"cannot read {kind} file {path}: {exc}") from exc


def ingest_csv(path: str | Path) -> IngestResult:
    """Load a bar CSV (header: symbol,date,open,high,low,close,volume).

    Rows without a valid positive close, open, high and low, or with a
    non-finite volume, are skipped and counted, each with a diagnostic that
    names its line. A row whose optional open/high/low/volume fields are
    blank inherits the close (volume defaults to 0); a volume is truncated
    to whole shares. Non-monotonic timestamps within a symbol are fatal.
    One line is one row, even inside a quoted field that spans lines.

    Each byte range of whole lines (``_read_ranges``) goes through numpy's
    C parser and column-wise checks, or, if it holds a line they cannot
    vouch for, the row reader (``_read_range``). The ranges are then grouped
    by symbol and order-checked once (``_merge``). Whatever its size, a
    file is parsed once per content (``_cached``).
    """
    path = Path(path)
    with _open_csv(path, BAR_CSV_HEADER, "bar"):
        return _cached(path)


@dataclass
class _Grouped:
    """A bar file's kept rows grouped by symbol, symbols in order of first
    appearance: symbol i's rows are ``bounds[i]:bounds[i + 1]`` of each of
    the six columns (day ordinals, then open, high, low, close and volume).
    ``rejected`` holds a (line, message) per rejected row, lines from 1."""

    symbols: list[str]
    bounds: np.ndarray
    columns: list[np.ndarray]
    rejected: list[tuple[int, str]]

    def result(self, path: Path) -> IngestResult:
        """Each symbol's ``SymbolBars`` of views into the columns, and the
        diagnostics naming ``path``."""
        bars = {
            symbol: SymbolBars(*(c[self.bounds[i]:self.bounds[i + 1]] for c in self.columns))
            for i, symbol in enumerate(self.symbols)
        }
        diagnostics = [f"{path}:{line}: {message}" for line, message in self.rejected]
        return IngestResult(bars, diagnostics)


def _cached(path: Path) -> IngestResult:
    """The ``IngestResult`` of the file's ranges (``_merge``), parsed once
    per content.

    A hidden sibling file records the grouped columns of the file's last
    parse under its key (``_cache_key``). Every ingest takes the file's key
    on a second thread while this one loads the record and builds its
    result (``_load``). The thread is joined before the keys are compared,
    so none is alive when this returns or when a parse forks its workers.
    Equal keys return the loaded result. Otherwise (no record, one that
    ``_load`` refuses, or another key) the file is parsed, and the parse
    recorded under the key unless the file's ``_stamp`` moved during the
    hash or the parse. A parse that raises records nothing."""
    cache = path.with_name(f".{path.name}.ingest.npz")
    stamp = _stamp(path)
    with contextlib.ExitStack() as stack:
        record, recorded = _open_record(cache, stack)
        with ThreadPoolExecutor(1) as pool:  # leaving the block joins its thread
            hashing = pool.submit(_cache_key, path)
            kept = None if record is None else _load(record, path)
            key = hashing.result()
        if kept is not None and key == recorded:
            return kept
    del kept  # its columns would stay alive through the parse
    grouped = _merge(path, _read_ranges(path))
    if _stamp(path) == stamp:
        _store(cache, key, grouped, path.stat().st_mode & 0o666)
    return grouped.result(path)


def _stamp(path: Path) -> tuple[int, int, int]:
    """The file's inode, size and mtime: any of them moves when the file is
    replaced or written while it is hashed or parsed."""
    st = path.stat()
    return st.st_ino, st.st_size, st.st_mtime_ns


def _cache_key(path: Path) -> str:
    """sha256 of this module's source, numpy's and Python's versions and the
    file's bytes, read 1 MiB at a time."""
    # Imported here: OpenSSL's libcrypto adds about 3.6 MB to the resident
    # memory of a process that loads it, and only this needs it.
    import hashlib

    digest = hashlib.sha256(Path(__file__).read_bytes())
    digest.update(f"\0{np.__version__}\0{sys.version}\0".encode())
    with path.open("rb") as raw:
        while block := raw.read(1 << 20):
            digest.update(block)
    return digest.hexdigest()


# What reading a damaged record raises: a corrupt zip flag or method field
# raises RuntimeError or NotImplementedError.
_RECORD_ERRORS = (OSError, EOFError, KeyError, ValueError, RuntimeError, zipfile.BadZipFile)


def _open_record(
    cache: Path, stack: contextlib.ExitStack
) -> tuple[np.lib.npyio.NpzFile | None, str | None]:
    """The record that ``_store`` kept in ``cache``, open on ``stack``, and
    its key; (None, None) if the file is missing or unreadable."""
    try:
        raw = stack.enter_context(cache.open("rb"))
        record = stack.enter_context(np.lib.npyio.NpzFile(raw, allow_pickle=False))
        key = record["key"]
    except _RECORD_ERRORS:
        return None, None
    if key.dtype.kind != "U" or key.ndim:
        return None, None
    return record, key.item()


def _load(record: np.lib.npyio.NpzFile, path: Path) -> IngestResult | None:
    """The ``IngestResult`` of the grouped columns in the open ``record``,
    with diagnostics naming ``path``; None if they are unreadable, not of
    ``_store``'s shapes and dtypes, or refused by ``SymbolBars``."""
    try:
        symbols, bounds, lines, messages = (
            record[name] for name in ("symbols", "bounds", "lines", "messages")
        )
        columns = [record[name] for name in _CACHE_COLUMNS]
    except _RECORD_ERRORS:
        return None
    rows = columns[0].size
    if not (
        symbols.dtype.kind == messages.dtype.kind == "U" and symbols.ndim == messages.ndim == 1
        and bounds.dtype == np.intp and lines.dtype == columns[0].dtype == np.int64
        and all(c.dtype == np.float64 for c in columns[1:])
        and all(c.shape == (rows,) for c in columns)
        and bounds.shape == (symbols.size + 1,) and lines.shape == messages.shape
        and bounds[0] == 0 and bounds[-1] == rows and np.all(np.diff(bounds) > 0)
    ):
        return None
    grouped = _Grouped(
        symbols.tolist(), bounds, columns, list(zip(lines.tolist(), messages.tolist()))
    )
    try:
        return grouped.result(path)
    except (DataOrderingError, InvalidInputError):  # bars no parse would keep
        return None


def _store(cache: Path, key: str, grouped: _Grouped, mode: int) -> None:
    """Record ``grouped`` under ``key`` in ``cache``: written to a temporary
    file in its directory, given the permission bits ``mode`` (the CSV's, so
    whoever can read the CSV can read its record) and renamed over it.
    Nothing is recorded if that fails, or if a string would not survive
    numpy's str arrays, which drop trailing NULs."""
    lines, messages = zip(*grouped.rejected) if grouped.rejected else ((), ())
    if any(s.endswith("\0") for s in (*grouped.symbols, *messages)):
        return
    arrays = dict(
        zip(_CACHE_COLUMNS, grouped.columns), key=np.array(key), bounds=grouped.bounds,
        symbols=np.array(grouped.symbols, dtype=str),
        lines=np.array(lines, dtype=np.int64), messages=np.array(messages, dtype=str),
    )
    try:
        tmp = tempfile.NamedTemporaryFile(dir=cache.parent, prefix=f"{cache.name}.", delete=False)
    except OSError:  # the directory cannot be written
        return
    try:
        with tmp:
            np.savez(tmp, **arrays)
        os.chmod(tmp.name, mode)
        os.replace(tmp.name, cache)
    except OSError:  # the record only saves a later parse
        pass
    finally:
        Path(tmp.name).unlink(missing_ok=True)  # gone once renamed


@dataclass
class _Range:
    """A byte range of a bar CSV: distinct symbols; each kept row's code, day,
    five fields and line (from 0); the line count; a (line, message) per rejected row."""

    symbols: list[str]
    codes: np.ndarray
    days: np.ndarray
    fields: list[np.ndarray]
    lines: Sequence[int]
    line_count: int
    diagnostics: list[tuple[int, str]]


def _read_ranges(path: Path) -> list[_Range]:
    """``_read_range`` over the whole file, in ranges as ``INGEST_RANGE_BYTES``
    sets out. Each of two or more ranges is read through a handle of its own
    (``_ByteRange``) and decoded as by ``path.open()``; range 0 holds the
    header."""
    size = path.stat().st_size
    count = min(workers.usable_cpus(), size // INGEST_RANGE_BYTES)
    if count < 2:
        with path.open() as text:
            return [_read_range(text, skip=1)]
    with path.open("rb") as raw:  # cut k: past the line holding byte size * k // count
        cuts = [raw.seek(size * k // count) + len(raw.readline()) for k in range(1, count)]
    cuts = [0, *cuts, size]

    def read_range(i: int) -> _Range:
        with path.open("rb", buffering=0) as raw, io.TextIOWrapper(
            io.BufferedReader(_ByteRange(raw, cuts[i], cuts[i + 1]), 1 << 20)
        ) as text:
            return _read_range(text, skip=int(i == 0))

    return list(workers.fork_map(read_range, count))


class _ByteRange(io.RawIOBase):
    """Bytes ``start:end`` of an unbuffered binary file as a seekable stream
    of their own: its position 0 is byte ``start``, and it ends at byte
    ``end`` however long the file is."""

    def __init__(self, raw: io.RawIOBase, start: int, end: int):
        super().__init__()
        self._raw, self._start, self._size, self._at = raw, start, end - start, 0

    def readable(self) -> bool:
        return True

    def seekable(self) -> bool:
        return True

    def seek(self, offset: int, whence: int = io.SEEK_SET) -> int:
        self._at = max(0, (0, self._at, self._size)[whence] + offset)
        return self._at

    def readinto(self, buffer) -> int:
        self._raw.seek(self._start + self._at)
        count = self._raw.readinto(memoryview(buffer)[: max(0, self._size - self._at)])
        self._at += count
        return count


def _read_range(text, skip: int) -> _Range:
    """The lines of a fresh ``text`` after its first ``skip``: by
    ``_parse_columns``, or by the row reader if that raises."""
    pulled = itertools.count()  # zip draws one more than the lines it passes on
    try:
        columns = _parse_columns(map(operator.itemgetter(1), zip(pulled, text)), skip)
    except ValueError:
        return _read_lines(text, skip)
    line_count = next(pulled) - 1
    lines: Sequence[int] = range(skip, line_count)
    if columns[2].size != len(lines):  # np.loadtxt skipped blank lines
        text.seek(0)
        lines = [k for k, line in enumerate(text) if k >= skip and line.strip()]
    return _Range(*columns, lines, line_count, [])


def _distinct(values: np.ndarray) -> tuple[list[str], np.ndarray]:
    """The distinct strings of an object array in order of first appearance,
    and each element's index into them."""
    index: dict[str, int] = {}
    codes = np.fromiter(
        (index.setdefault(v, len(index)) for v in values), dtype=np.intp, count=values.size
    )
    return list(index), codes


def _parse_columns(lines: Iterable[str], skip: int):
    """``_Range``'s first four fields, by numpy's C parser and the row reader's rules
    column-wise. ValueError if a line does not parse or the row reader would treat it apart."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # a range may hold no rows
        table = np.loadtxt(
            lines, dtype=_ROW_DTYPE, delimiter=",", skiprows=skip, comments=None, ndmin=1
        )
    symbols, codes = _distinct(table["symbol"])
    if any(not s or s != s.strip() or '"' in s for s in symbols):
        raise ValueError("a blank, padded or quoted symbol")
    dates, date_codes = _distinct(table["date"])
    open_, high, low, close, volume = (table[name] for name in BAR_CSV_HEADER[2:])
    ordinals = [date.fromisoformat(d.strip()).toordinal() for d in dates]
    days = np.array(ordinals, dtype=np.int64)[date_codes]
    volume = np.trunc(volume) + 0.0  # int(float(text)), with -0.0 as 0
    if not _usable(open_, high, low, close, volume).all():
        raise ValueError("a row to reject")
    return symbols, codes, days, [open_, high, low, close, volume]


def _read_lines(text, skip: int) -> _Range:
    """The row reader: every line of ``text`` after its first ``skip``, from
    the start, read as one CSV row on its own, with each rejected row named."""
    text.seek(0)
    index: dict[str, int] = {}
    codes, records, lines, diagnostics = [], [], [], []
    line_count = skip
    for lineno, line in enumerate(itertools.islice(text, skip, None), start=skip):
        line_count = lineno + 1
        row = _cells(line)
        if row is None:
            continue
        if len(row) != len(BAR_CSV_HEADER):
            diagnostics.append((lineno, "wrong field count"))
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
            diagnostics.append((lineno, str(exc)))
            continue
        if not symbol:
            diagnostics.append((lineno, "empty symbol"))
            continue
        if volume < 0 or low > min(open_, close) or max(open_, close) > high:
            diagnostics.append((lineno, "inconsistent OHLCV fields"))
            continue
        codes.append(index.setdefault(symbol, len(index)))
        records.append((ts.toordinal(), open_, high, low, close, volume))
        lines.append(lineno)
    table = np.array(records, dtype=float).reshape(-1, 6)
    return _Range(
        list(index), np.array(codes, dtype=np.intp), table[:, 0].astype(np.int64),
        list(table[:, 1:].T), lines, line_count, diagnostics,
    )


def _joined(arrays: list[np.ndarray]) -> np.ndarray:
    """The ranges' arrays as one, with no copy of a file read as one range."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def _merge(path: Path, parts: list[_Range]) -> _Grouped:
    """The ranges of one file, in file order, as one ``_Grouped``: the rows
    grouped by symbol with one stable sort, keeping file order within each
    symbol, and the timestamp order checked once."""
    # The first range's codes are the file's; later ranges' symbols are renumbered.
    index = {symbol: code for code, symbol in enumerate(parts[0].symbols)}
    codes = _joined([parts[0].codes] + [
        np.array([index.setdefault(s, len(index)) for s in part.symbols], dtype=np.intp)[part.codes]
        for part in parts[1:]
    ])
    symbols = list(index)
    first_lines = np.cumsum([1] + [part.line_count for part in parts])
    rejected = [
        (first + lineno, message)
        for part, first in zip(parts, first_lines) for lineno, message in part.diagnostics
    ]
    order = np.argsort(codes, kind="stable")
    grouped_codes = codes[order]
    days = _joined([part.days for part in parts])[order]
    same_symbol = grouped_codes[1:] == grouped_codes[:-1]
    late = np.flatnonzero(same_symbol & (np.diff(days) <= 0)) + 1
    if late.size:
        at = late[np.argmin(order[late])]  # the first offending row in file order
        first_rows = np.cumsum([0] + [part.days.size for part in parts])
        i = np.searchsorted(first_rows, order[at], side="right") - 1
        lineno = first_lines[i] + parts[i].lines[order[at] - first_rows[i]]
        raise DataOrderingError(
            f"{path}:{lineno}: {symbols[grouped_codes[at]]} timestamp "
            f"{date.fromordinal(days[at])} not after {date.fromordinal(days[at - 1])}"
        )
    columns = [days, *(_joined(f)[order] for f in zip(*(part.fields for part in parts)))]
    bounds = np.searchsorted(grouped_codes, np.arange(len(symbols) + 1))
    return _Grouped(symbols, bounds, columns, rejected)


def ingest_meta_csv(path: str | Path) -> dict[str, InstrumentMeta]:
    """Load instrument metadata (header: symbol,sector,shares_outstanding).
    One line is one row, as in ``ingest_csv``."""
    path = Path(path)
    meta: dict[str, InstrumentMeta] = {}
    first_line: dict[str, int] = {}
    with _open_csv(path, META_CSV_HEADER, "metadata") as handle:
        for lineno, row in enumerate(map(_cells, handle), start=2):
            if row is None:
                continue
            if len(row) != 3:
                raise DuotraderError(f"{path}:{lineno}: wrong field count")
            symbol = row[0].strip()
            try:
                item = InstrumentMeta(symbol, row[1].strip(), int(float(row[2])))
            except (ValueError, OverflowError) as exc:
                raise DuotraderError(f"{path}:{lineno}: invalid shares_outstanding: {exc}") from exc
            except InvalidInputError as exc:
                raise DuotraderError(f"{path}:{lineno}: {exc}") from exc
            if symbol in first_line:
                at = first_line[symbol]
                raise DuotraderError(f"{path}:{lineno}: duplicate symbol {symbol} (first on line {at})")
            first_line[symbol] = lineno
            meta[symbol] = item
    return meta


def synth_regime_series(
    seed: int,
    n_bars: int,
    regimes: Sequence[tuple[float, float]],
    transition: Iterable[Iterable[float]],
    start_price: float = 100.0,
    start_date: date = date(2015, 1, 2),
) -> tuple[SymbolBars, np.ndarray]:
    """Generate a geometric price path driven by a hidden Markov regime chain.

    Each regime is a (daily drift, daily volatility) pair for the Gaussian log
    return drawn while that regime is active. Returns the bars and the true
    per-bar regime labels. The first bar is on ``start_date``, whatever its
    weekday, and each later bar on the next weekday. Pure function of its
    arguments: identical seed gives a bit-identical series.
    """
    if n_bars < 1:
        raise ParameterError("n_bars must be >= 1")
    if not start_price > 0:
        raise ParameterError("start_price must be > 0")
    means = np.array([m for m, _ in regimes], dtype=float)
    stds = np.array([s for _, s in regimes], dtype=float)
    if means.size == 0:
        raise ParameterError("at least one regime is required")
    if np.any(stds <= 0):
        raise ParameterError("every regime stdev must be > 0")
    trans = np.asarray(transition, dtype=float)
    k = means.size
    if trans.shape != (k, k) or np.any(trans < 0) or np.any(
        np.abs(trans.sum(axis=1) - 1.0) > 1e-9
    ):
        raise ParameterError("transition must be a row-stochastic KxK matrix")

    rng = np.random.default_rng(seed)
    labels = np.empty(n_bars, dtype=int)
    labels[0] = rng.integers(k)
    for t in range(1, n_bars):
        labels[t] = rng.choice(k, p=trans[labels[t - 1]])
    returns = means[labels] + stds[labels] * rng.standard_normal(n_bars)

    closes = start_price * np.exp(np.cumsum(returns))
    opens = np.concatenate([[start_price], closes[:-1]])
    spans = rng.uniform(0.0, 0.002, size=(n_bars, 2))
    volumes = rng.integers(100_000, 2_000_000, size=n_bars)

    highs = np.maximum(opens, closes) * (1.0 + spans[:, 0])
    lows = np.minimum(opens, closes) * (1.0 - spans[:, 1])
    # Rolling a weekend start_date back to its Friday makes the second bar
    # the Monday after it. datetime64[D] counts days from 1970-01-01.
    days = np.busday_offset(start_date, np.arange(n_bars), roll="backward").astype(np.int64)
    days += date(1970, 1, 1).toordinal()
    days[0] = start_date.toordinal()
    return SymbolBars(days, opens, highs, lows, closes, volumes.astype(float)), labels
