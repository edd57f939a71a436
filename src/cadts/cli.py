"""Command-line surface: train, score, eval, report, export-embeddings.

Exit codes: 0 success, 1 usage/config error, 2 data or IO error,
3 numeric failure (non-finite loss). Entity runs write into per-entity
subdirectories of the output root (flag ``--out`` or env ``CADTS_OUT_ROOT``),
so a whole multi-entity dataset trains as one command; ``--jobs`` fans
entities out across processes.

Config files are ``key = value`` lines (``#`` comments); ``--set key=value``
overrides file values, which override built-in defaults. Unknown keys are
rejected.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Iterator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import fields
from pathlib import Path

import numpy as np

from .data import apply_minmax, fit_minmax, load_labels, load_series, make_windows
from .errors import ConfigError, DataError, NumericError
from .evaluate import (
    EvalRow,
    aggregate_entities,
    best_f1,
    kth_point_adjust,
    point_adjust,
    prf,
    read_metrics,
    read_scores,
    score_series,
    write_metrics,
    write_scores,
)
from .model import build_model, expert_embeddings
from .train import (
    TrainConfig,
    load_checkpoint,
    save_checkpoint,
    train_model,
    write_history,
)

OUT_ROOT_ENV = "CADTS_OUT_ROOT"
CHECKPOINT_NAME = "checkpoint.cadckpt"
HISTORY_NAME = "history.tsv"
SCORES_NAME = "scores.txt"
METRICS_NAME = "metrics.tsv"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)

    def _parse_optional(self, arg_string):
        # argparse reads only digit-led negatives such as -0.5 as values;
        # -inf and -1e-3 are numbers too, so `--threshold -inf` works
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


def _parse_config_text(text: str, source: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{source}: line {lineno}: expected key = value")
        values[key.strip()] = value.strip()
    return values


def make_train_config(config_path=None, overrides=()) -> TrainConfig:
    """Defaults < config file < --set overrides; unknown keys rejected."""
    raw: dict[str, str] = {}
    if config_path is not None:
        path = Path(config_path)
        if not path.is_file():
            raise DataError(f"config file not found: {path}")
        raw.update(_parse_config_text(path.read_text(), str(path)))
    for item in overrides or ():
        key, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        raw[key.strip()] = value.strip()
    unknown = sorted(set(raw) - {f.name for f in fields(TrainConfig)})
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    try:
        cfg = TrainConfig.from_text(raw)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    cfg.validate()
    return cfg


def _default_out_root() -> str:
    return os.environ.get(OUT_ROOT_ENV, "runs")


def _resolve_entities(data_root: Path, spec: str, marker: str) -> list[str]:
    if not data_root.is_dir():
        raise DataError(f"data root not found: {data_root}")
    if spec != "all":
        entities = [e.strip() for e in spec.split(",") if e.strip()]
        if not entities:
            raise ConfigError("empty entity list")
        for entity in entities:
            if not (data_root / entity / marker).is_file():
                raise DataError(f"missing {data_root / entity / marker}")
        return entities
    entities = sorted(d.name for d in data_root.iterdir() if (d / marker).is_file())
    if not entities:
        raise DataError(f"no entity directories with {marker} under {data_root}")
    return entities


def _run_tasks(worker, tasks, jobs: int, inputs) -> Iterator[str]:
    """``worker(*task)`` for every task, on at most ``jobs`` processes and
    never more processes than tasks; results are yielded in task order as
    they finish, so a later task's error comes after the earlier results.

    ``inputs[i]`` is the file task ``i`` reads. With more than one worker the
    task with the largest input starts first (ties keep task order): an
    entity's run time grows with its input, so the longest one no longer
    starts last while the other workers sit idle at the end."""
    if jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {jobs}")
    workers = min(jobs, len(tasks))
    if workers <= 1:
        yield from (worker(*task) for task in tasks)
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [None] * len(tasks)
        for i in sorted(range(len(tasks)), key=lambda i: -os.path.getsize(inputs[i])):
            futures[i] = pool.submit(worker, *tasks[i])
        try:
            for future in futures:
                yield future.result()
        finally:
            # as Executor.map does: a failed task cancels those not started
            for future in futures:
                future.cancel()


# --- train ---------------------------------------------------------------------


def _train_entity(data_root: str, out_root: str, entity: str, cfg: TrainConfig) -> str:
    series = load_series(Path(data_root) / entity / "train.csv")
    scaler = fit_minmax(series, clip=cfg.clip) if cfg.scale else None
    scaled = apply_minmax(scaler, series, clip=cfg.clip) if scaler is not None else series
    windows = make_windows(scaled, cfg.l, cfg.h)
    model = build_model(cfg.model_config(), n_metrics=series.shape[1], rng_seed=cfg.seed)
    model, history = train_model(model, windows, cfg)
    entity_dir = Path(out_root) / entity
    entity_dir.mkdir(parents=True, exist_ok=True)
    save_checkpoint(model, scaler, entity_dir / CHECKPOINT_NAME, cfg)
    write_history(history, entity_dir / HISTORY_NAME)
    return f"trained {entity}: epochs={len(history.epochs)} stop={history.stopping_reason}"


def cmd_train(args) -> int:
    cfg = make_train_config(args.config, args.set)
    data_root = Path(args.data_root)
    entities = _resolve_entities(data_root, args.entities, "train.csv")
    out_root = Path(args.out)
    tasks = [(str(data_root), str(out_root), entity, cfg) for entity in entities]
    inputs = [data_root / entity / "train.csv" for entity in entities]
    for line in _run_tasks(_train_entity, tasks, args.jobs, inputs):
        print(line, flush=True)
    return 0


# --- score ---------------------------------------------------------------------


def _score_one(checkpoint: str, input_csv: str, output: str) -> str:
    model, scaler = load_checkpoint(checkpoint)
    series = load_series(input_csv)
    try:
        scored = score_series(model, series, scaler)
    except NumericError as exc:
        raise NumericError(f"{input_csv}: {exc}") from None
    Path(output).parent.mkdir(parents=True, exist_ok=True)
    write_scores(output, scored)
    return f"scored {Path(input_csv).parent.name or input_csv}: {len(scored)} timestamps -> {output}"


def cmd_score(args) -> int:
    if args.checkpoint is not None:
        if args.input is None or args.output is None:
            raise ConfigError("score with --checkpoint needs --input and --output")
        tasks = [(args.checkpoint, args.input, args.output)]
    elif args.data_root is None:
        raise ConfigError("score needs either --checkpoint or --run-dir and --data-root")
    else:
        run_dir = Path(args.run_dir)
        data_root = Path(args.data_root)
        tasks = []
        for entity in _resolve_entities(data_root, args.entities, "test.csv"):
            checkpoint = run_dir / entity / CHECKPOINT_NAME
            if not checkpoint.is_file():
                raise DataError(f"missing checkpoint: {checkpoint}")
            tasks.append(
                (str(checkpoint), str(data_root / entity / "test.csv"), str(run_dir / entity / SCORES_NAME))
            )
    inputs = [input_csv for _, input_csv, _ in tasks]
    for line in _run_tasks(_score_one, tasks, args.jobs, inputs):
        print(line, flush=True)
    return 0


# --- eval ----------------------------------------------------------------------


def _parse_modes(mode: str, ks: str) -> list[tuple[str, int | None]]:
    try:
        # a budget given twice is one row, so report counts its entity once
        k_values = list(dict.fromkeys(int(v) for v in ks.split(",") if v.strip()))
    except ValueError:
        raise ConfigError(f"--k expects a comma list of integers, got {ks!r}") from None
    if any(k < 0 for k in k_values):
        raise ConfigError(f"--k delay budgets must be >= 0, got {ks!r}")
    if mode == "all":
        return [("raw", None), ("pa", None)] + [("kpa", k) for k in k_values]
    if mode in ("raw", "pa"):
        return [(mode, None)]
    if mode == "kpa":
        if not k_values:
            raise ConfigError("kpa mode needs --k")
        return [("kpa", k) for k in k_values]
    raise ConfigError(f"unknown mode {mode!r} (raw, pa, kpa or all)")


def _adjust(labels, preds, mode: str, k: int | None):
    if mode == "pa":
        return point_adjust(labels, preds)
    if mode == "kpa":
        return kth_point_adjust(labels, preds, k)
    return preds


def _eval_rows(entity, scores, labels, modes, threshold) -> list[EvalRow]:
    rows = []
    for mode, k in modes:
        if threshold is None:
            hit = best_f1(scores, labels, mode=mode, k=k)
            rows.append(EvalRow(entity, mode, k, hit.threshold, hit.precision, hit.recall, hit.f1))
        else:
            preds = (np.asarray(scores) >= threshold).astype(int)
            p, r, f1 = prf(labels, _adjust(labels, preds, mode, k))
            rows.append(EvalRow(entity, mode, k, threshold, p, r, f1))
    return rows


def _print_rows(rows: list[EvalRow]) -> None:
    print("entity\tmode\tk\tthreshold\tP\tR\tF1")
    for r in rows:
        k = "-" if r.k is None else r.k
        print(f"{r.entity}\t{r.mode}\t{k}\t{r.threshold!r}\t{r.precision!r}\t{r.recall!r}\t{r.f1!r}")


def cmd_eval(args) -> int:
    modes = _parse_modes(args.mode, args.k)
    if args.threshold is not None and np.isnan(args.threshold):
        raise ConfigError("--threshold must be a number, got nan")
    if args.scores is not None:
        if args.labels is None:
            raise ConfigError("eval with --scores needs --labels")
        entity = args.entity or Path(args.scores).parent.name or "entity"
        runs = [(entity, args.scores, args.labels, args.output)]
    elif args.data_root is None:
        raise ConfigError("eval needs either --scores or --run-dir and --data-root")
    else:
        run_dir = Path(args.run_dir)
        data_root = Path(args.data_root)
        runs = [
            (entity, run_dir / entity / SCORES_NAME, data_root / entity / "test_label.csv",
             run_dir / entity / METRICS_NAME)
            for entity in _resolve_entities(data_root, args.entities, "test_label.csv")
        ]
    all_rows = []
    for entity, scores_path, labels_path, metrics_path in runs:
        scores = read_scores(scores_path)
        labels = load_labels(labels_path, expected_length=len(scores))
        try:
            rows = _eval_rows(entity, scores, labels, modes, args.threshold)
        except ValueError as exc:
            raise DataError(f"{entity}: {exc}") from None
        if metrics_path is not None:
            write_metrics(metrics_path, rows)
        all_rows.extend(rows)
    _print_rows(all_rows)
    return 0


# --- report --------------------------------------------------------------------


def cmd_report(args) -> int:
    paths: list[Path] = [Path(p) for p in args.metrics or []]
    if args.run_dir is not None:
        paths.extend(sorted(Path(args.run_dir).glob(f"*/{METRICS_NAME}")))
    if not paths:
        raise ConfigError("report needs --metrics files or --run-dir")
    rows = []
    for path in paths:
        rows.extend(read_metrics(path))
    groups: dict[tuple[str, int | None], list[EvalRow]] = {}
    for row in rows:
        groups.setdefault((row.mode, row.k), []).append(row)

    def order(key):
        mode, k = key
        return ({"raw": 0, "pa": 1, "kpa": 2}.get(mode, 3), k if k is not None else -1)

    lines = ["mode\tk\tentities\tF1\tP\tR\tF1*"]
    for key in sorted(groups, key=order):
        mode, k = key
        group = groups[key]
        f1_mean, p_bar, r_bar, f1_star = aggregate_entities(
            [(r.precision, r.recall, r.f1) for r in group]
        )
        k_text = "-" if k is None else k
        lines.append(
            f"{mode}\t{k_text}\t{len(group)}\t{f1_mean!r}\t{p_bar!r}\t{r_bar!r}\t{f1_star!r}"
        )
    text = "\n".join(lines)
    print(text)
    if args.output is not None:
        Path(args.output).write_text(text + "\n")
    return 0


# --- export-embeddings -----------------------------------------------------------


def cmd_export_embeddings(args) -> int:
    if args.stride < 1:
        raise ConfigError(f"--stride must be >= 1, got {args.stride}")
    model, scaler = load_checkpoint(args.checkpoint)
    series = load_series(args.input)
    if series.shape[1] != model.n_metrics:
        raise DataError(
            f"{args.input} has {series.shape[1]} metrics but checkpoint expects {model.n_metrics}"
        )
    scaled = apply_minmax(scaler, series) if scaler is not None else series
    cfg = model.config
    windows = make_windows(scaled, cfg.l, cfg.h)
    sampled = np.arange(0, len(windows), args.stride)
    embedded = expert_embeddings(model, windows.windows[sampled])

    lines = []
    for row, sample_index in enumerate(sampled):
        for expert_id in range(embedded.shape[1]):
            values = "\t".join(repr(float(v)) for v in embedded[row, expert_id])
            lines.append(f"{sample_index}\t{expert_id}\t{values}")
    Path(args.output).write_text("\n".join(lines) + "\n")
    print(
        f"exported {len(lines)} embedding rows"
        f" ({len(sampled)} windows x {embedded.shape[1]} experts)"
    )
    return 0


# --- parser --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cadts", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common_train_opts(p):
        p.add_argument("--config", help="config file of key = value lines")
        p.add_argument("--set", action="append", metavar="KEY=VALUE", help="override a config key")

    p_train = sub.add_parser("train", help="train one checkpoint per entity")
    p_train.add_argument("--data-root", required=True, help="directory of <entity>/train.csv")
    p_train.add_argument("--entities", default="all", help="comma list or 'all'")
    p_train.add_argument("--out", default=_default_out_root(), help=f"output root (${OUT_ROOT_ENV})")
    p_train.add_argument("--jobs", type=int, default=1, help="parallel entities")
    add_common_train_opts(p_train)
    p_train.set_defaults(func=cmd_train)

    p_score = sub.add_parser("score", help="score a test series with a checkpoint")
    p_score.add_argument("--checkpoint", help="single checkpoint file")
    p_score.add_argument("--input", help="test CSV (with --checkpoint)")
    p_score.add_argument("--output", help="scores file (with --checkpoint)")
    p_score.add_argument("--run-dir", default=_default_out_root(), help="root of per-entity outputs")
    p_score.add_argument("--data-root", help="directory of <entity>/test.csv")
    p_score.add_argument("--entities", default="all")
    p_score.add_argument("--jobs", type=int, default=1)
    p_score.set_defaults(func=cmd_score)

    p_eval = sub.add_parser("eval", help="metrics from scores and labels")
    p_eval.add_argument("--scores", help="scores file (one real per line)")
    p_eval.add_argument("--labels", help="label file (one 0/1 per line)")
    p_eval.add_argument("--entity", help="entity name for the report rows")
    p_eval.add_argument("--run-dir", default=_default_out_root())
    p_eval.add_argument("--data-root", help="directory of <entity>/test_label.csv")
    p_eval.add_argument("--entities", default="all")
    p_eval.add_argument("--mode", default="all", help="raw, pa, kpa or all")
    p_eval.add_argument("--k", default="10,20,30", help="comma list of kpa delay budgets")
    p_eval.add_argument("--threshold", type=float, help="fixed threshold instead of the sweep")
    p_eval.add_argument("--output", help="metrics file to write (single-entity mode)")
    p_eval.set_defaults(func=cmd_eval)

    p_report = sub.add_parser("report", help="aggregate per-entity metrics")
    p_report.add_argument("--metrics", nargs="*", help="metrics files")
    p_report.add_argument("--run-dir", help="scan <run-dir>/*/metrics.tsv")
    p_report.add_argument("--output", help="aggregate file to write")
    p_report.set_defaults(func=cmd_report)

    p_export = sub.add_parser("export-embeddings", help="dump expert embeddings")
    p_export.add_argument("--checkpoint", required=True)
    p_export.add_argument("--input", required=True, help="series CSV to embed")
    p_export.add_argument("--output", required=True)
    p_export.add_argument("--stride", type=int, default=1, help="sample every Nth window")
    p_export.set_defaults(func=cmd_export_embeddings)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
