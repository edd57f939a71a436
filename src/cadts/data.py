"""Series loading, train-fitted MinMax scaling, and sliding-window samples.

Input convention: plain CSV with rows as timestamps and columns as metrics,
optionally one header row; label files carry one {0,1} per line. An entity
directory holds train.csv, test.csv and test_label.csv.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DataError


@dataclass
class SeriesMatrix:
    """T x K observations; timestamps are implicit row indices."""

    values: np.ndarray
    labels: np.ndarray | None = None
    entity_id: str = ""

    def __post_init__(self):
        if self.values.ndim != 2 or self.values.shape[0] < 1 or self.values.shape[1] < 1:
            raise DataError(f"series must be a T x K matrix with T,K >= 1, got {self.values.shape}")
        if self.labels is not None and len(self.labels) != self.shape[0]:
            raise DataError(
                f"labels length {len(self.labels)} != series length {self.shape[0]}"
                f" for entity {self.entity_id!r}"
            )

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


@dataclass
class Scaler:
    """Per-column min/max fitted on training data."""

    mins: np.ndarray
    maxs: np.ndarray
    clip: bool = True

    @property
    def n_columns(self) -> int:
        return len(self.mins)


@dataclass
class WindowSet:
    """Supervised samples: windows[i] covers rows [i, i+l), target is row
    i + l + h - 1. Window arrays are strided views into the series."""

    windows: np.ndarray  # (S, K, l)
    targets: np.ndarray  # (S, K)

    def __len__(self) -> int:
        return len(self.windows)


def _looks_like_header(line: str) -> bool:
    for cell in line.split(","):
        try:
            float(cell)
        except ValueError:
            return True
    return False


def _nonblank_lines(path: Path, skip: int) -> list[str]:
    """Re-read the file: its lines up to the last non-blank one. Raises if
    there are none, or none past the ``skip`` header lines."""
    lines = path.read_text().splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise DataError(f"{path}: empty file")
    if len(lines) == skip:
        raise DataError(f"{path}: no data rows")
    return lines


def _diagnose_csv(path: Path, skip: int) -> None:
    """Slow re-read and re-parse to locate the offending cell (ragged,
    non-numeric or non-finite); always raises."""
    expected = None
    for lineno, line in enumerate(_nonblank_lines(path, skip), start=1):
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
            try:
                finite = np.isfinite(float(cell))
            except ValueError:
                finite = False
            if not finite:
                raise DataError(
                    f"{path}: value {cell.strip()!r} at line {lineno}, column {col}"
                    " is not a finite number"
                )
    raise DataError(f"{path}: unparseable CSV")


def load_series(path, labels_path=None, entity_id: str | None = None) -> SeriesMatrix:
    """Parse a CSV series (and optional label file) into a SeriesMatrix.

    The file is read once: the header decision comes from its literal first
    line (a blank first line counts as a header), the values from one
    ``np.loadtxt`` pass over the same open file, so no copy of the text is
    held. Only the error paths re-read it, to name an empty file or the
    offending cell.
    """
    path = Path(path)
    if not path.is_file():
        raise DataError(f"series file not found: {path}")
    with path.open() as fh:
        skip = 1 if _looks_like_header(fh.readline()) else 0
        if not skip:
            fh.seek(0)
        try:
            with warnings.catch_warnings():
                # no rows is reported below, by _nonblank_lines
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                values = np.loadtxt(fh, delimiter=",", dtype=np.float64, ndmin=2)
        except ValueError:
            _diagnose_csv(path, skip)
    if values.size == 0:
        _nonblank_lines(path, skip)
    if not np.isfinite(values).all():
        _diagnose_csv(path, skip)

    labels = None
    if labels_path is not None:
        labels = load_labels(labels_path, expected_length=values.shape[0])
    if entity_id is None:
        entity_id = path.resolve().parent.name
    return SeriesMatrix(values=values, labels=labels, entity_id=entity_id)


def load_labels(path, expected_length: int | None = None) -> np.ndarray:
    """One {0,1} per line."""
    path = Path(path)
    if not path.is_file():
        raise DataError(f"label file not found: {path}")
    try:
        raw = np.loadtxt(path, dtype=np.float64, ndmin=1)
    except ValueError as exc:
        raise DataError(f"{path}: unparseable label file ({exc})") from None
    labels = raw.astype(np.int64)
    if raw.ndim != 1 or not np.array_equal(labels, raw) or not np.isin(labels, (0, 1)).all():
        raise DataError(f"{path}: labels must be one 0 or 1 per line")
    if expected_length is not None and len(labels) != expected_length:
        raise DataError(f"{path}: {len(labels)} labels for {expected_length} timestamps")
    return labels


def fit_minmax(train: SeriesMatrix, clip: bool = True) -> Scaler:
    """Record per-column min/max over the training rows."""
    return Scaler(
        mins=train.values.min(axis=0).copy(),
        maxs=train.values.max(axis=0).copy(),
        clip=clip,
    )


def apply_minmax(scaler: Scaler, data: SeriesMatrix, clip: bool | None = None) -> SeriesMatrix:
    """(v - min) / (max - min) per column; constant columns map to 0.

    ``clip`` clamps the result to [0, 1] (needed on test data, whose values
    may fall outside the training range); None defers to the scaler's flag.
    """
    if data.shape[1] != scaler.n_columns:
        raise DataError(
            f"series has {data.shape[1]} columns but scaler was fit on {scaler.n_columns}"
        )
    if clip is None:
        clip = scaler.clip
    span = scaler.maxs - scaler.mins
    safe = np.where(span > 0, span, 1.0)
    scaled = (data.values - scaler.mins) / safe
    scaled[:, span == 0] = 0.0
    if clip:
        np.clip(scaled, 0.0, 1.0, out=scaled)
    return SeriesMatrix(values=scaled, labels=data.labels, entity_id=data.entity_id)


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
