"""Command-line surface: train, score, eval and report.

Exit codes: 0 success, 1 usage/config error, 2 data or IO error (or a dead
``--jobs`` worker), 3 numeric failure, 130 Ctrl-C. Entity runs write into
per-entity subdirectories of the output root (flag ``--out`` or env
``CADTS_OUT_ROOT``), so a whole multi-entity dataset trains as one command;
``--jobs`` fans entities out across processes.

Config files are ``key = value`` lines (``#`` comments); ``--set key=value``
overrides file values, which override built-in defaults. Unknown keys are
rejected.
"""

from __future__ import annotations

import argparse
import multiprocessing
import os
import sys
from collections.abc import Iterator
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import cores
from .data import (apply_minmax, atomic_write, fit_minmax, load_labels, load_series, make_windows, read_lines,
                   table_text)
from .errors import ConfigError, DataError, NumericError
from .evaluate import (
    MODES,
    EvalRow,
    aggregate_entities,
    best_f1,
    format_metrics,
    read_metrics,
    read_scores,
    score_series,
    write_metrics,
    write_scores,
)
from .model import build_model, parse_value
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


def _parse_config_lines(lines: list[str], source: str) -> dict[str, tuple[str, str]]:
    """``key -> (value text, where it was set)`` of a config file's lines."""
    values: dict[str, tuple[str, str]] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{source}: line {lineno}: expected key = value")
        values[key.strip()] = (value.strip(), f"{source}: line {lineno}")
    return values


def make_train_config(config_path=None, overrides=()) -> TrainConfig:
    """Defaults < config file < --set overrides; unknown keys rejected."""
    raw: dict[str, tuple[str, str]] = {}
    if config_path is not None:
        raw.update(_parse_config_lines(read_lines(config_path, ConfigError), str(config_path)))
    for item in overrides or ():
        key, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        raw[key.strip()] = (value.strip(), f"--set {item}")
    hints = get_type_hints(TrainConfig)
    unknown = sorted(set(raw) - set(hints))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    values = {}
    for key, (text, where) in raw.items():
        try:
            values[key] = parse_value(hints[key], key, text)
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from None
    cfg = TrainConfig(**values)
    cfg.validate()
    return cfg


def _default_out_root() -> str:
    return os.environ.get(OUT_ROOT_ENV, "runs")


def _require_dir(path: Path) -> None:
    if not path.is_dir():
        raise DataError(f"{path}: {'is not a directory' if path.exists() else 'not found'}")


def _resolve_entities(data_root: Path, spec: str | None, marker: str) -> list[str]:
    """The entities ``spec`` names (a comma list, each directory once by its
    ``normpath``, so no two workers write one entity's files; 'all' or None
    for every directory under ``data_root`` holding ``marker``). A name
    that is absolute, ``.`` or leads out through ``..`` is refused."""
    _require_dir(data_root)
    if spec not in (None, "all"):
        names = [name.strip() for name in spec.split(",") if name.strip()]
        if not names:
            raise ConfigError("empty entity list")
        for name in names:
            if os.path.isabs(name) or os.path.normpath(name).split(os.sep)[0] in (os.curdir, os.pardir):
                raise ConfigError(f"--entities: {name!r} is not a directory under {data_root}")
        entities = list(dict.fromkeys(map(os.path.normpath, names)))
        for entity in entities:
            if not (data_root / entity / marker).exists():
                raise DataError(f"{data_root / entity / marker}: not found")
        return entities
    entities = sorted(d.name for d in data_root.iterdir() if (d / marker).is_file())
    if not entities:
        raise DataError(f"no entity directories with {marker} under {data_root}")
    return entities


def _entity_dirs(args, command: str, single: str, needs: tuple[str, ...], others: tuple[str, ...],
                 marker: str) -> list[tuple[str, Path, Path]] | None:
    """None for the single-file form of ``command`` (``single`` and all of
    ``needs`` given), else the run-dir form's ``(entity, run dir, data dir)``
    per entity holding ``marker``. Either form first refuses, naming it, a
    flag only the other reads (the single-file form's are ``others``)."""
    def given(flag: str) -> bool:
        return getattr(args, flag[2:].replace("-", "_")) is not None

    if given(single):
        form, refused = single, ("--data-root", "--run-dir", "--entities")
    elif args.data_root is None:
        raise ConfigError(f"{command} needs either {single} or --run-dir and --data-root")
    else:
        form, refused = "--data-root", others
    for flag in filter(given, refused):
        raise ConfigError(f"{command} with {form} takes no {flag}")
    if form == single:
        if not all(map(given, needs)):
            raise ConfigError(f"{command} with {single} needs {' and '.join(needs)}")
        return None
    run_dir = Path(_default_out_root() if args.run_dir is None else args.run_dir)
    data_root = Path(args.data_root)
    return [(entity, run_dir / entity, data_root / entity)
            for entity in _resolve_entities(data_root, args.entities, marker)]


def _run_tasks(worker, tasks, jobs: int) -> Iterator[str]:
    """``worker(*task)`` for every task, on at most ``jobs`` processes and
    never more processes than tasks; results are yielded in task order as
    they finish, so a later task's error comes after the earlier results.

    ``task[0]`` is the file the task reads. With more than one worker the
    task with the largest input starts first (ties keep task order): an
    entity's run time grows with its input, so the longest one no longer
    starts last while the other workers sit idle at the end. Each worker
    takes its share of the cores and dies with this process
    (``cores.enter_worker``). A dead worker fails the first unfinished task
    (DataError), also while tasks are still being queued; a
    KeyboardInterrupt kills the workers."""
    if jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {jobs}")
    workers = min(jobs, len(tasks))
    if workers <= 1:
        yield from (worker(*task) for task in tasks)
        return
    with ProcessPoolExecutor(
        max_workers=workers, initializer=cores.enter_worker, initargs=(workers, os.getpid())
    ) as pool:
        futures, finished = {}, 0
        try:
            for i in sorted(range(len(tasks)), key=lambda i: -os.path.getsize(tasks[i][0])):
                futures[i] = pool.submit(worker, *tasks[i])  # raises once a worker has died
            for finished in range(len(tasks)):
                yield futures[finished].result()
        except BrokenProcessPool:
            raise DataError(f"{tasks[finished][0]}: a --jobs worker died before this entity finished") from None
        except (KeyboardInterrupt, GeneratorExit):
            # interrupted here or in the caller: the pool's shutdown would wait for the running tasks
            for process in multiprocessing.active_children():
                process.kill()
            raise
        finally:
            # as Executor.map does: a failed task cancels those not started
            for future in futures.values():
                future.cancel()


# --- train ---------------------------------------------------------------------


def _train_entity(train_csv: Path, entity_dir: Path, cfg: TrainConfig) -> str:
    series = load_series(train_csv)
    try:
        scaler = fit_minmax(series, clip=cfg.clip) if cfg.scale else None
        if scaler is not None:  # training holds the scaled rows only
            series = apply_minmax(scaler, series)
        windows = make_windows(series, cfg.l, cfg.h)
        model = build_model(cfg.model_config(), n_metrics=series.shape[1], rng_seed=cfg.seed)
        model, history = train_model(model, windows, cfg)
    except (DataError, NumericError) as exc:
        raise type(exc)(f"{train_csv}: {exc}") from None
    save_checkpoint(model, scaler, entity_dir / CHECKPOINT_NAME, cfg)
    write_history(history, entity_dir / HISTORY_NAME)
    return f"trained {entity_dir.name}: epochs={len(history.epochs)} stop={history.stopping_reason}"


def cmd_train(args) -> int:
    cfg = make_train_config(args.config, args.set)
    data_root = Path(args.data_root)
    tasks = [(data_root / entity / "train.csv", Path(args.out) / entity, cfg)
             for entity in _resolve_entities(data_root, args.entities, "train.csv")]
    for line in _run_tasks(_train_entity, tasks, args.jobs):
        print(line, flush=True)
    return 0


# --- score ---------------------------------------------------------------------


def _score_one(input_csv: str | Path, checkpoint: str | Path, output: str | Path) -> str:
    model, scaler = load_checkpoint(checkpoint)
    series = load_series(input_csv)
    try:
        scored = score_series(model, series, scaler)
    except (DataError, NumericError) as exc:
        raise type(exc)(f"{input_csv}: {exc} (checkpoint {checkpoint})") from None
    write_scores(output, scored)
    return f"scored {Path(input_csv).parent.name or input_csv}: {len(scored)} timestamps -> {output}"


def cmd_score(args) -> int:
    files = ("--input", "--output")
    dirs = _entity_dirs(args, "score", "--checkpoint", files, files, "test.csv")
    tasks = (
        [(args.input, args.checkpoint, args.output)]
        if dirs is None
        else [(data / "test.csv", run / CHECKPOINT_NAME, run / SCORES_NAME) for _, run, data in dirs]
    )
    for line in _run_tasks(_score_one, tasks, args.jobs):
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


def cmd_eval(args) -> int:
    modes = _parse_modes(args.mode, args.k)
    if args.threshold is not None and np.isnan(args.threshold):
        raise ConfigError("--threshold must be a number, got nan")
    dirs = _entity_dirs(args, "eval", "--scores", ("--labels",), ("--labels", "--entity", "--output"),
                        "test_label.csv")
    runs = (
        [(args.entity or Path(args.scores).parent.name or "entity", args.scores, args.labels, args.output)]
        if dirs is None
        else [(entity, run / SCORES_NAME, data / "test_label.csv", run / METRICS_NAME) for entity, run, data in dirs]
    )
    for i, (entity, scores_path, labels_path, metrics_path) in enumerate(runs):
        scores = read_scores(scores_path)
        labels = load_labels(labels_path, expected_length=len(scores))
        try:
            rows = [EvalRow(entity, mode, k, *best_f1(scores, labels, mode, k, threshold=args.threshold))
                    for mode, k in modes]
        except ValueError as exc:
            raise DataError(f"{entity}: {exc}") from None
        if metrics_path is not None:
            write_metrics(metrics_path, rows)
        # per entity, so a later entity's error leaves these rows shown; the header once
        print(format_metrics(rows) if i == 0 else table_text(rows), end="", flush=True)
    return 0


# --- report --------------------------------------------------------------------


def cmd_report(args) -> int:
    paths: list[Path] = [Path(p) for p in args.metrics or []]
    if args.run_dir is not None:
        run_dir = Path(args.run_dir)
        _require_dir(run_dir)
        found = sorted(run_dir.glob(f"*/{METRICS_NAME}"))
        if not found:
            raise DataError(f"{run_dir}: no */{METRICS_NAME}")
        paths.extend(found)
    if not paths:
        raise ConfigError("report needs --metrics files or --run-dir")
    # a file given twice (or also found under --run-dir) is one entity's rows, read once
    once: dict[str, Path] = {}
    for path in paths:
        once.setdefault(os.path.realpath(path), path)
    rows = [row for path in once.values() for row in read_metrics(path)]
    groups: dict[tuple[str, int | None], list[EvalRow]] = {}
    for row in rows:
        groups.setdefault((row.mode, row.k), []).append(row)

    table = [("mode", "k", "entities", "F1", "P", "R", "F1*")]
    for key in sorted(groups, key=lambda key: (MODES.index(key[0]), -1 if key[1] is None else key[1])):
        group = groups[key]
        table.append((*key, len(group), *aggregate_entities([(r.precision, r.recall, r.f1) for r in group])))
    text = table_text(table)
    print(text, end="")
    if args.output is not None:
        atomic_write(args.output, [text.encode()])
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
    p_score.add_argument("--run-dir", help=f"root of per-entity outputs (default ${OUT_ROOT_ENV} or runs)")
    p_score.add_argument("--data-root", help="directory of <entity>/test.csv")
    p_score.add_argument("--entities", help="comma list or 'all' (the default)")
    p_score.add_argument("--jobs", type=int, default=1)
    p_score.set_defaults(func=cmd_score)

    p_eval = sub.add_parser("eval", help="metrics from scores and labels")
    p_eval.add_argument("--scores", help="scores file (one real per line)")
    p_eval.add_argument("--labels", help="label file (one 0/1 per line)")
    p_eval.add_argument("--entity", help="entity name for the report rows")
    p_eval.add_argument("--run-dir", help=f"root of per-entity outputs (default ${OUT_ROOT_ENV} or runs)")
    p_eval.add_argument("--data-root", help="directory of <entity>/test_label.csv")
    p_eval.add_argument("--entities", help="comma list or 'all' (the default)")
    p_eval.add_argument("--mode", default="all", help="raw, pa, kpa or all")
    p_eval.add_argument("--k", default="10,20,30", help="comma list of kpa delay budgets")
    p_eval.add_argument("--threshold", type=float, help="fixed threshold instead of the sweep")
    p_eval.add_argument("--output", help="metrics file to write (single-entity mode)")
    p_eval.set_defaults(func=cmd_eval)

    p_report = sub.add_parser("report", help="aggregate per-entity metrics")
    p_report.add_argument("--metrics", nargs="*", action="extend", help="metrics files (may be repeated)")
    p_report.add_argument("--run-dir", help="scan <run-dir>/*/metrics.tsv")
    p_report.add_argument("--output", help="aggregate file to write")
    p_report.set_defaults(func=cmd_report)

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
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
