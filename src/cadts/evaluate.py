"""Anomaly scoring and the point-adjustment evaluation protocol.

Scores are per-timestamp prediction errors, kept as one-column CSVs read
and written through ``data``, like the metrics report. Modes: ``raw``
(point-wise), ``pa`` (a labeled segment counts as fully detected if any
point inside it is flagged), and ``kpa`` (only if the first flag arrives
within ``k`` steps of its onset; else the whole segment is a miss).
``window_errors`` is the one eval loop, of scoring and of validation.

``best_f1`` sweeps every distinct score as a candidate threshold in one
array pass, with no per-candidate loop. Raw mode treats each positive point
as a one-point segment, so every mode reduces to one detection statistic
per segment (the max score over its detection span); sorted statistics and
sorted negative-position scores give all candidates' confusion counts by
binary search, count-for-count identical to a naive recount.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import cores
from .data import (Scaler, SeriesMatrix, _read_csv, apply_minmax, atomic_write, make_windows, read_lines,
                   table_text)
from .errors import DataError, NumericError
from .model import CadModel

MODES = ("raw", "pa", "kpa")

# Windows per eval chunk of ``score_series``, run on helper threads, one
# per core of the process's budget, so the chunks in flight hold budget x
# chunk windows. At 38 metrics the chunk's expert stage (conv outputs and
# embeddings) sets the footprint, as the towers mix one block of metrics at
# a time (``model.TOWER_BLOCK``), so it follows the chunk: scoring a
# 28,479 x 38 series on one thread peaks at 2.9 MB above the parsed series
# in float32 (5.5 MB in float64), against 4.2 MB (8.1) with every metric
# mixed at once and 8.1 MB (16.0) in 256-window chunks; a fresh ``cadts
# score`` of such a series peaks at 49 MB, against 56 MB and 66 MB. The
# smaller arrays stay nearer the cores' caches, so the forward is no slower
# per window; the per-chunk Python overhead, paid twice as often as at 256,
# shows only on tiny models. It is a constant, never derived from the core
# count, so a series scores the same on any host.
SCORE_CHUNK = 128


@dataclass
class ScoreSeries:
    """Per-timestamp scores aligned to the test series; indices before
    ``valid_from`` hold a copy of the first genuine score."""

    scores: np.ndarray
    valid_from: int

    def __len__(self) -> int:
        return len(self.scores)


class BestF1(NamedTuple):
    threshold: float
    precision: float
    recall: float
    f1: float


class EvalRow(NamedTuple):
    """One line of a metrics report."""

    entity: str
    mode: str
    k: int | None
    threshold: float
    precision: float
    recall: float
    f1: float


def window_errors(model: CadModel, rows: np.ndarray, scaler: Scaler | None, batch: int, threads: int) -> np.ndarray:
    """Eval-mode mean squared prediction error, float64, of each of the
    T - l - h + 1 windows of ``rows`` (T, K); metric count and length checked.

    Each thread takes ``batch`` windows at a time, slices their rows, scales
    them by ``scaler`` if one is given, casts them to the model dtype and
    windows them (``make_windows``), so memory holds only the chunks in
    flight. A chunk's errors depend only on the model and its rows, so the
    chunks run on up to ``threads`` threads: the caller's and helpers that
    each take the next chunk start and write their own slice. Scoring
    passes ``cores.eval_threads()``, which sets the process policy first, so
    each BLAS call runs one thread (unless the environment pins it) and no
    thread changes the setting while chunks run; validation passes 1 and
    forwards on the training thread. The helpers are joined before return,
    and the first error of any thread is raised here. Each thread ignores
    numpy's floating-point errors: an overflow shows as a non-finite error,
    for the caller to check."""
    series = SeriesMatrix(values=rows)
    if series.shape[1] != model.n_metrics:
        raise DataError(f"series has {series.shape[1]} metrics but model expects {model.n_metrics}")
    cfg = model.config
    count = len(make_windows(series, cfg.l, cfg.h))  # raises on a series too short
    errors = np.empty(count, dtype=np.float64)
    starts = iter(range(0, count, batch))
    take = threading.Lock()
    failures: list[BaseException] = []

    def forward_chunks() -> None:
        try:
            with np.errstate(all="ignore"):
                while not failures:
                    with take:
                        start = next(starts, None)
                    if start is None:
                        return
                    chunk = rows[start : start + batch + cfg.l + cfg.h - 1]
                    if scaler is not None:
                        chunk = apply_minmax(scaler, SeriesMatrix(values=chunk)).values
                    chunk = chunk.astype(cfg.np_dtype, copy=False)  # drops a scaled float64 copy
                    windows = make_windows(SeriesMatrix(values=chunk), cfg.l, cfg.h)
                    err = model.forward_batch(windows.windows, mode="eval").data - windows.targets
                    errors[start : start + len(err)] = (err * err).mean(axis=1)
        except BaseException as exc:
            failures.append(exc)

    threads = min(threads, -(-count // batch))
    helpers = [threading.Thread(target=forward_chunks) for _ in range(threads - 1)]
    for helper in helpers:
        helper.start()
    forward_chunks()
    for helper in helpers:
        helper.join()
    if failures:
        raise failures[0]
    return errors


def score_series(model: CadModel, test: SeriesMatrix, scaler: Scaler | None = None) -> ScoreSeries:
    """Eval-mode prediction error at every predictable timestamp, computed
    ``SCORE_CHUNK`` windows at a time (``window_errors``); a non-finite one
    raises NumericError naming the first such timestamp. Memory grows with
    the series by the scores and errors alone, 16 B per timestamp, and
    ``write_scores`` adds none: it writes the text a block at a time. The
    chunks run on ``cores.eval_threads()`` threads."""
    genuine = window_errors(model, test.values, scaler, SCORE_CHUNK, cores.eval_threads())
    valid_from = model.config.l + model.config.h - 1
    bad = np.flatnonzero(~np.isfinite(genuine))
    if bad.size:
        raise NumericError(f"non-finite prediction error at timestamp {bad[0] + valid_from}")
    scores = np.empty(test.shape[0], dtype=np.float64)
    scores[valid_from:] = genuine
    scores[:valid_from] = genuine[0]
    return ScoreSeries(scores=scores, valid_from=valid_from)


# --- adjustment and confusion -------------------------------------------------


def _as_binary(name: str, values) -> np.ndarray:
    arr = np.asarray(values)
    out = arr.astype(np.int8)
    if arr.ndim != 1 or not np.array_equal(out, arr) or not np.isin(out, (0, 1)).all():
        raise ValueError(f"{name} must be a 1-D binary vector")
    return out


def _binary_pair(labels, preds) -> tuple[np.ndarray, np.ndarray]:
    labels = _as_binary("labels", labels)
    preds = _as_binary("preds", preds)
    if len(labels) != len(preds):
        raise ValueError(f"length mismatch: {len(labels)} labels vs {len(preds)} preds")
    return labels, preds


def _segments(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """[start, end) bounds of maximal runs of 1-labels."""
    edges = np.flatnonzero(np.diff(np.concatenate(([0], labels, [0]))))
    return edges[0::2], edges[1::2]


def _span_max(values: np.ndarray, starts, ends, k: int) -> np.ndarray:
    """Per segment, the max of ``values`` over its first ``k + 1`` points.
    No segment outlasts a budget of the series length, so ``k`` is capped
    there; a span may end at ``len(values)``, hence the padded sentinel."""
    span_ends = np.minimum(starts + min(k, len(values)) + 1, ends)
    bounds = np.column_stack((starts, span_ends)).ravel()
    return np.maximum.reduceat(np.pad(values, (0, 1)), bounds)[::2]


def point_adjust(labels, preds) -> np.ndarray:
    """Flood each labeled segment with 1s if any point inside it is flagged:
    kPA with a budget no segment outlasts."""
    return kth_point_adjust(labels, preds, np.size(labels))


def kth_point_adjust(labels, preds, k: int) -> np.ndarray:
    """Like PA, but the flag must arrive within ``k`` steps of segment onset
    (delay 0 = at onset); otherwise the whole segment is cleared to 0."""
    labels, preds = _binary_pair(labels, preds)
    if k < 0:
        raise ValueError(f"delay budget k must be >= 0, got {k}")
    starts, ends = _segments(labels)
    adjusted = preds.copy()
    adjusted[labels == 1] = np.repeat(_span_max(preds, starts, ends, k), ends - starts)
    return adjusted


def _prf_from_counts(tp, fp, fn) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Precision, recall, F1 elementwise over counts, with the
    zero-denominator convention P=R=F1=0."""

    def ratio(num, den):
        return np.divide(num, den, out=np.zeros(np.shape(den)), where=den != 0)

    precision = ratio(tp, tp + fp)
    recall = ratio(tp, tp + fn)
    return precision, recall, ratio(2.0 * precision * recall, precision + recall)


def prf(labels, preds) -> tuple[float, float, float]:
    """Precision, recall, F1 with the zero-denominator convention P=R=F1=0."""
    labels, preds = _binary_pair(labels, preds)
    tp = int(np.sum((labels == 1) & (preds == 1)))
    fp = int(np.sum((labels == 0) & (preds == 1)))
    fn = int(np.sum((labels == 1) & (preds == 0)))
    return tuple(float(v) for v in _prf_from_counts(tp, fp, fn))


# --- threshold sweep ----------------------------------------------------------


def best_f1(scores, labels, mode: str = "pa", k: int | None = None, threshold: float | None = None) -> BestF1:
    """Best (threshold, P, R, F1) over all candidate thresholds.

    Candidates are the distinct score values plus +inf (the all-negative
    prediction), or ``threshold`` alone when one is given; the rule is
    ``score >= threshold`` and ties on F1 go to the smallest threshold.
    Labels with no positive point leave the sweep undefined, but a given
    threshold counts them as P = R = F1 = 0.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if mode == "kpa" and (k is None or k < 0):
        raise ValueError("kpa mode needs a delay budget k >= 0")
    scores = np.asarray(getattr(scores, "scores", scores), dtype=np.float64)
    labels = _as_binary("labels", labels)
    if len(scores) != len(labels):
        raise ValueError(f"length mismatch: {len(scores)} scores vs {len(labels)} labels")
    if not np.isfinite(scores).all():
        raise ValueError("scores contain non-finite values")
    if threshold is None and not labels.any():
        raise ValueError("labels contain no positive points; best F1 is undefined")
    if threshold is not None and np.isnan(threshold):
        raise ValueError("threshold must be a number, got nan")

    if mode == "raw":  # every positive point is a segment of its own
        starts = np.flatnonzero(labels)
        ends = starts + 1
    else:
        starts, ends = _segments(labels)
    stats = _span_max(scores, starts, ends, k if mode == "kpa" else len(scores))
    order = np.argsort(stats, kind="stable")
    prefix = np.concatenate(([0], np.cumsum((ends - starts)[order])))
    total = prefix[-1]
    negatives = np.sort(scores[labels == 0])
    candidates = np.concatenate((np.unique(scores), [np.inf])) if threshold is None else np.array([threshold], float)
    # TP(theta) = total length of segments whose detection stat >= theta
    tp = total - prefix[np.searchsorted(stats[order], candidates, side="left")]
    fp = len(negatives) - np.searchsorted(negatives, candidates, side="left")
    precision, recall, f1 = _prf_from_counts(tp, fp, total - tp)
    best = np.argmax(f1)  # ascending candidates: the first max is the smallest threshold
    return BestF1(*(float(v[best]) for v in (candidates, precision, recall, f1)))


def aggregate_entities(per_entity) -> tuple[float, float, float, float]:
    """(mean F1, mean P, mean R, F1* = harmonic mean of the P/R means)."""
    rows = list(per_entity)
    if not rows:
        raise ValueError("aggregate over an empty entity list")
    p_bar = sum(p for p, _, _ in rows) / len(rows)
    r_bar = sum(r for _, r, _ in rows) / len(rows)
    f1_mean = sum(f for _, _, f in rows) / len(rows)
    f1_star = 2.0 * p_bar * r_bar / (p_bar + r_bar) if p_bar + r_bar else 0.0
    return f1_mean, p_bar, r_bar, f1_star


# --- plain-text interchange ----------------------------------------------------

_METRIC_COLUMNS = ("entity", "mode", "k", "threshold", "P", "R", "F1")


# The values a scores file's text is made and written for at a time: a
# series' scores never exist as one text, whose Python floats and strings
# take about 116 B a value. A constant, like SCORE_CHUNK.
SCORES_TEXT_BLOCK = 4096


# One value per line, not through ``table_text``: a 28,479-value scores file
# took ~68 ms that way against ~41 ms here (medians of 9 alternating runs on a
# 2-core Xeon), about 4% of scoring a 28,479 x 38 series end to end.
def write_scores(path, scores) -> None:
    values = np.asarray(getattr(scores, "scores", scores), dtype=np.float64)
    atomic_write(path, ("".join(f"{v!r}\n" for v in values[i : i + SCORES_TEXT_BLOCK].tolist()).encode()
                        for i in range(0, len(values), SCORES_TEXT_BLOCK)))


def read_scores(path) -> np.ndarray:
    """A one-column CSV (``data._read_csv``) of finite reals."""
    path = Path(path)
    values = _read_csv(path)
    if values.shape[1] != 1:
        raise DataError(f"{path}: scores file must hold one real per line")
    return values[:, 0]


def format_metrics(rows: list[EvalRow]) -> str:
    """A metrics report: the column header and one line per row (``table_text``)."""
    return table_text([_METRIC_COLUMNS, *rows])


def write_metrics(path, rows: list[EvalRow]) -> None:
    atomic_write(path, [format_metrics(rows).encode()])


def _metric_cell(path, lineno: int, column: str, cell: str):
    """A metrics row's numeric cell: k an integer or '-', the threshold any
    real (inf is the all-negative prediction), P, R and F1 finite reals."""
    try:
        if column == "k":
            return None if cell == "-" else int(cell)
        value = float(cell)
        if column == "threshold" or np.isfinite(value):
            return value
    except ValueError:
        pass
    need = {"k": "an integer or '-'", "threshold": "a number"}.get(column, "a finite number")
    raise DataError(f"{path}: line {lineno}: {column} {cell!r} is not {need}")


def read_metrics(path) -> list[EvalRow]:
    """The rows of a metrics report as ``format_metrics`` writes them: at
    least one, each raw or pa with k '-', or kpa with an integer k."""
    lines = read_lines(path)
    if lines[0].split("\t") != list(_METRIC_COLUMNS):
        raise DataError(f"{path}: not a metrics report (missing column header)")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split("\t")
        if len(cells) != len(_METRIC_COLUMNS):
            raise DataError(f"{path}: malformed metrics row at line {lineno}")
        numbers = (_metric_cell(path, lineno, *pair) for pair in zip(_METRIC_COLUMNS[2:], cells[2:]))
        row = EvalRow(*cells[:2], *numbers)
        if row.mode not in MODES or (row.k is None) == (row.mode == "kpa"):
            raise DataError(f"{path}: line {lineno}: mode {row.mode!r} with k {cells[2]!r} is not"
                            " raw or pa with k '-', or kpa with an integer k")
        rows.append(row)
    if not rows:
        raise DataError(f"{path}: no metrics rows")
    return rows
