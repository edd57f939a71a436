"""Series loading, train-fitted MinMax scaling, and sliding-window samples.

One text layer: every input file is opened by ``open_input``, every text
file is read as UTF-8 cut at LF, CRLF or a lone CR, a leading byte-order
mark dropped (``read_lines``), every table is made by ``table_text`` and
every file written by ``atomic_write``.
Series, label and score files are one CSV format (``_read_csv``): an
optional header row, then finite numbers (``#`` starts no comment); label
and score files hold one column. An entity directory holds train.csv,
test.csv and test_label.csv. A CSV of at least two ``MIN_PART_BYTES`` parts
of data is parsed in one forked child per part and core.
"""

from __future__ import annotations

import codecs
import io
import mmap
import os
import re
import signal
import warnings
from collections.abc import Iterable
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import cores
from .errors import DataError


# The smallest share of a CSV's data bytes that a forked parser takes: a
# 4 MiB part parses in about 0.07 s on a 2-core Xeon, well above the cost of
# its fork and pipe. A file with less than two parts' worth parses in process.
MIN_PART_BYTES = 4 << 20


@dataclass
class SeriesMatrix:
    """T x K observations; timestamps are implicit row indices."""

    values: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        if self.values.ndim != 2 or self.values.shape[0] < 1 or self.values.shape[1] < 1:
            raise DataError(f"series must be a T x K matrix with T,K >= 1, got {self.values.shape}")
        if self.labels is not None and len(self.labels) != self.shape[0]:
            raise DataError(f"labels length {len(self.labels)} != series length {self.shape[0]}")

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


@dataclass
class Scaler:
    """Per-column min/max fitted on training data."""

    mins: np.ndarray
    maxs: np.ndarray
    clip: bool = True


@dataclass
class WindowSet:
    """Supervised samples: windows[i] covers rows [i, i+l), target is row
    i + l + h - 1. Window arrays are strided views into the series."""

    windows: np.ndarray  # (S, K, l)
    targets: np.ndarray  # (S, K)

    def __len__(self) -> int:
        return len(self.windows)


def split_lines(text: str) -> list[str]:
    """``text`` cut at LF, CRLF or a lone CR: where the parse cuts it."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


@contextmanager
def _naming(path):
    """An OSError in the block raises DataError naming ``path``: ``<path>:
    not found``, ``<path>: is a directory``, ``<path>: a parent is not a
    directory``, or ``<path>: <strerror>``. Any other error passes through."""
    try:
        yield
    except FileNotFoundError:
        raise DataError(f"{path}: not found") from None
    except IsADirectoryError:
        raise DataError(f"{path}: is a directory") from None
    except (NotADirectoryError, FileExistsError):  # FileExistsError: mkdir met a file
        raise DataError(f"{path}: a parent is not a directory") from None
    except OSError as exc:
        raise DataError(f"{path}: {exc.strerror}") from None


def open_input(path):
    """The one open of an input file, for binary reading; a path that
    cannot be opened raises DataError naming it (``_naming``)."""
    with _naming(path):
        return open(path, "rb")


def read_lines(path, error: type[Exception] = DataError) -> list[str]:
    """A UTF-8 text file's lines (``split_lines``), opened by ``open_input``,
    without a leading byte-order mark; a byte that does not decode raises
    ``error`` naming the file and the byte's line."""
    with open_input(path) as fh:
        raw = fh.read().removeprefix(codecs.BOM_UTF8)  # a leading byte-order mark is not text
    try:
        return split_lines(raw.decode())
    except UnicodeDecodeError as exc:
        line = len(split_lines(raw[: exc.start].decode()))
        raise error(f"{path}: line {line}: byte {raw[exc.start]:#04x} is not UTF-8 text") from None


def atomic_write(path, blocks: Iterable[bytes]) -> None:
    """Write the byte blocks ``blocks`` in turn to ``{path}.tmp``, then move
    it over ``path``, making its directory first; a generator's blocks are
    written as they come. An OSError there raises DataError naming ``path``
    (``_naming``); the generator's own errors pass through. On failure the
    temporary file is removed and the old file keeps its bytes."""
    tmp = Path(f"{path}.tmp")
    with _naming(path):
        tmp.parent.mkdir(parents=True, exist_ok=True)
        try:
            with tmp.open("wb") as fh:
                for block in blocks:
                    fh.write(block)
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)


def _cell(cell) -> str:
    if isinstance(cell, float):
        return repr(cell)
    text = "-" if cell is None else str(cell)
    if "\t" in text or "\n" in text or "\r" in text:
        raise DataError(f"table cell {text!r} holds a tab or a line break")
    return text


def table_text(rows: Iterable[Iterable]) -> str:
    """The one table rule: an LF-ended line per row, cells joined by tabs; a
    float by ``repr`` (it reads back exactly), None as ``-``, any other cell
    by ``str``, which must hold no tab, CR or LF (DataError naming it)."""
    return "".join("\t".join(map(_cell, row)) + "\n" for row in rows)


# a cell that reads as a number or starts like one: a sign, then a digit or
# a point and a digit, or a whole nan or inf (what float() reads)
_NUMBER_START = re.compile(r"\s*[+-]?(\.?\d|(nan|inf|infinity)\s*$)", re.IGNORECASE)


def _looks_like_header(line: str) -> bool:
    """A first line is a header when none of its cells reads as a number or
    starts like one; so a damaged first data row (``1,2#`` or ``0.1#3``)
    is data, and its bad cell is named."""
    return not any(_NUMBER_START.match(cell) for cell in line.split(","))


def _diagnose_csv(path: Path, skip: int) -> None:
    """Slow re-read and re-parse to name the fault: an empty file, no line
    past the ``skip`` header lines but blank ones, or the offending cell
    (ragged, non-numeric or non-finite); always raises."""
    lines = read_lines(path)
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise DataError(f"{path}: empty file")
    if len(lines) == skip:
        raise DataError(f"{path}: no data rows")
    expected = None
    for lineno, line in enumerate(lines, start=1):
        if lineno <= skip or not line.strip():
            continue
        cells = line.split(",")
        if expected is None:
            expected = len(cells)
        elif len(cells) != expected:
            raise DataError(
                f"{path}: ragged row at line {lineno}: expected {expected} columns, got {len(cells)}"
            )
        for col, cell in enumerate(cells, start=1):
            try:  # float() also reads 1_0 and non-ASCII digits, the parse does not
                finite = cell.strip().isascii() and "_" not in cell and np.isfinite(float(cell))
            except ValueError:
                finite = False
            if not finite:
                raise DataError(
                    f"{path}: value {cell.strip()!r} at line {lineno}, column {col}"
                    " is not a finite number"
                )
    raise DataError(f"{path}: unparseable CSV")


def _parse(fh, start: int, stop: int) -> np.ndarray:
    """The one parse of CSV values: bytes [start, stop) of the binary file
    ``fh``, decoded as UTF-8 with universal newlines, whitespace lines blank.
    A range that runs to the end of the file streams from it; a shorter one
    (a forked child's part) is read first. Closes ``fh``."""
    with fh:
        fh.seek(start)
        data = fh if stop >= os.fstat(fh.fileno()).st_size else io.BytesIO(fh.read(stop - start))
        with warnings.catch_warnings(), io.TextIOWrapper(data, "utf-8") as text:
            # no rows is reported by _read_csv, through _diagnose_csv
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            rows = (line for line in text if not line.isspace())
            return np.loadtxt(rows, delimiter=",", dtype=np.float64, ndmin=2, comments=None)


def _part_bounds(path: Path, start: int) -> list[int]:
    """Byte offsets cutting the data bytes from ``start`` on into one part
    per core of the process's budget (``cores.budget``), each of at least
    MIN_PART_BYTES and each ending just after an LF byte; a single part when
    that cannot be done."""
    size = path.stat().st_size
    parts = min(cores.budget(), (size - start) // MIN_PART_BYTES)
    bounds = [start]
    if parts > 1:
        with path.open("rb") as fh, mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as mm:
            for i in range(1, parts):
                cut = mm.find(b"\n", start + i * (size - start) // parts - 1) + 1
                if bounds[-1] < cut < size:
                    bounds.append(cut)
    return bounds + [size]


def _read_into(pipe, buf: np.ndarray) -> bool:
    """Fill ``buf`` from ``pipe``; False if the pipe ends first."""
    view = memoryview(buf.reshape(-1).view(np.uint8))
    while view:
        n = pipe.readinto(view)
        if not n:
            return False
        view = view[n:]
    return True


def _parse_part(path: Path, start: int, stop: int, fd: int, parent: int, inherited) -> None:
    """In a forked child: close the pipe read ends ``inherited`` from the
    parent, so a pipe ends with the process that reads it; parse bytes
    [start, stop) of ``path``, write the rows' shape and then their raw
    float64 values to ``fd``, and leave the process. The child dies with
    ``parent``."""
    code = 1
    try:
        for pipe in inherited:
            pipe.close()
        cores.die_with(parent)
        values = _parse(path.open("rb"), start, stop)
        with open(fd, "wb") as out:
            out.write(np.array(values.shape, dtype=np.int64).tobytes())
            out.write(values.data)
        code = 0
    finally:
        os._exit(code)


def _load_parts(path: Path, bounds: list[int]) -> np.ndarray | None:
    """Parse each part between ``bounds`` in its own forked child and read
    the rows into one array. None, for the caller to parse in process, when
    a fork or a child fails, or the parts disagree on the column count."""
    pids, pipes, parent = [], [], os.getpid()
    try:
        for start, stop in zip(bounds, bounds[1:]):
            r, w = os.pipe()
            pipes.append(open(r, "rb", buffering=0))
            try:
                pid = os.fork()
            except OSError:
                os.close(w)
                return None
            if pid == 0:
                _parse_part(path, start, stop, w, parent, pipes)
            os.close(w)
            pids.append(pid)
        shapes = [np.empty(2, dtype=np.int64) for _ in pipes]
        if not all(_read_into(pipe, shape) for pipe, shape in zip(pipes, shapes)):
            return None
        # a part of blank lines only has no rows and no say in the columns
        columns = {int(k) for t, k in shapes if t} or {int(shapes[0][1])}
        if len(columns) > 1:
            return None
        values = np.empty((sum(int(t) for t, _ in shapes), columns.pop()))
        row = 0
        for pipe, (t, _) in zip(pipes, shapes):
            if not _read_into(pipe, values[row : row + t]):
                return None
            row += t
        return values
    finally:
        # a child still parsing when the load gives up is stopped; on success
        # every child has sent its rows and is exiting
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _read_csv(path: Path) -> np.ndarray:
    """The one read of a CSV file (series, labels or scores) into a T x K
    float64 array of finite values.

    The file is opened by ``open_input`` and read as UTF-8. The header
    decision comes from its literal first line, which ends at LF, CRLF or a
    lone CR (a blank first line counts as a header), less a leading
    byte-order mark; the data bytes start after the header line, or else
    after the mark. Data of at least two MIN_PART_BYTES parts is cut after LF
    bytes into parts, one per core; one forked child per part parses it
    with ``_parse`` and pipes back its raw rows, which land in the result in
    place, so the values are bitwise those of one in-process parse.
    Otherwise, or on any failure of the parts (a fork refused, a child's
    error, a short read, disagreeing column counts), ``_parse`` streams the
    data from the open file. Either way no copy of the text is held. Only
    the error paths re-read the file, to name an empty file or the
    offending cell, so every error message is the in-process one.
    """
    with io.TextIOWrapper(open_input(path), "utf-8", newline="") as fh:
        try:
            first = fh.readline()
        except UnicodeDecodeError:
            _diagnose_csv(path, 0)  # names the line that does not decode
        # a leading byte-order mark is not text: the data starts after it
        mark = "\ufeff" if first.startswith("\ufeff") else ""
        skip = 1 if _looks_like_header(first[len(mark) :]) else 0
        bounds = _part_bounds(path, len((first if skip else mark).encode()))
        values = _load_parts(path, bounds) if len(bounds) > 2 else None
        if values is None:
            try:
                values = _parse(fh.buffer, bounds[0], bounds[-1])
            except ValueError:  # a bad cell, or a byte that is not UTF-8
                _diagnose_csv(path, skip)
    if values.size == 0 or not np.isfinite(values).all():
        _diagnose_csv(path, skip)
    return values


def load_series(path, labels_path=None) -> SeriesMatrix:
    """A CSV series (``_read_csv``) and optional label file as a SeriesMatrix."""
    values = _read_csv(Path(path))
    labels = None
    if labels_path is not None:
        labels = load_labels(labels_path, expected_length=values.shape[0])
    return SeriesMatrix(values=values, labels=labels)


def load_labels(path, expected_length: int | None = None) -> np.ndarray:
    """A one-column CSV (``_read_csv``) of 0s and 1s."""
    path = Path(path)
    raw = _read_csv(path)
    if raw.shape[1] != 1 or not np.isin(raw, (0, 1)).all():
        raise DataError(f"{path}: labels must be one 0 or 1 per line")
    labels = raw[:, 0].astype(np.int64)
    if expected_length is not None and len(labels) != expected_length:
        raise DataError(f"{path}: {len(labels)} labels for {expected_length} timestamps")
    return labels


def fit_minmax(train: SeriesMatrix, clip: bool = True) -> Scaler:
    """Record per-column min/max over the training rows."""
    return Scaler(mins=train.values.min(axis=0), maxs=train.values.max(axis=0), clip=clip)


def apply_minmax(scaler: Scaler, data: SeriesMatrix, clip: bool | None = None) -> SeriesMatrix:
    """(v - min) / (max - min) per column; constant columns map to 0.

    ``clip`` clamps the result to [0, 1] (needed on test data, whose values
    may fall outside the training range); None defers to the scaler's flag.
    """
    if data.shape[1] != len(scaler.mins):
        raise DataError(f"series has {data.shape[1]} columns but scaler was fit on {len(scaler.mins)}")
    if clip is None:
        clip = scaler.clip
    span = scaler.maxs - scaler.mins
    safe = np.where(span > 0, span, 1.0)
    scaled = data.values - scaler.mins
    scaled /= safe
    scaled[:, span == 0] = 0.0
    if clip:
        np.clip(scaled, 0.0, 1.0, out=scaled)
    return SeriesMatrix(values=scaled, labels=data.labels)


def make_windows(series: SeriesMatrix, l: int, h: int) -> WindowSet:
    """All sliding windows of length ``l`` with the target ``h`` steps past
    the window's last row: exactly T - l - h + 1 samples."""
    if l < 1 or h < 1:
        raise ValueError(f"window length and horizon must be >= 1, got l={l}, h={h}")
    t = series.shape[0]
    if t < l + h:
        raise DataError(
            f"series of length {t} too short for window {l} + horizon {h};"
            f" need at least {l + h} rows"
        )
    count = t - l - h + 1
    windows = sliding_window_view(series.values, window_shape=l, axis=0)[:count]
    return WindowSet(windows=windows, targets=series.values[l + h - 1 :])
